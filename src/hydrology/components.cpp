#include "hydrology/components.hpp"

#include "storage/data_file.hpp"
#include "xml/parser.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace xmit::hydrology {

Component::Component(std::string name)
    : name_(std::move(name)),
      registry_(std::make_unique<pbio::FormatRegistry>()),
      xmit_(std::make_unique<toolkit::Xmit>(*registry_)),
      decoder_(std::make_unique<pbio::Decoder>(*registry_)) {}

Status Component::attach(const std::string& schema_url) {
  return xmit_->load(schema_url);
}

Result<const baseline::XmlWireCodec*> Component::codec_for(
    const std::string& type_name) {
  auto it = codecs_.find(type_name);
  if (it == codecs_.end()) {
    XMIT_ASSIGN_OR_RETURN(auto token, xmit_->bind(type_name));
    XMIT_ASSIGN_OR_RETURN(auto codec, baseline::XmlWireCodec::make(token.format));
    it = codecs_.emplace(type_name, std::move(codec)).first;
  }
  return &it->second;
}

Status Component::send_record(net::Channel& channel,
                              const std::string& type_name,
                              const void* record) {
  if (wire_mode_ == WireMode::kXmlText) {
    XMIT_ASSIGN_OR_RETURN(const auto* codec, codec_for(type_name));
    XMIT_ASSIGN_OR_RETURN(auto text, codec->encode(record));
    return channel.send(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  }
  XMIT_ASSIGN_OR_RETURN(auto token, xmit_->bind(type_name));
  ByteBuffer buffer;
  XMIT_RETURN_IF_ERROR(token.encoder->encode(record, buffer));
  return channel.send(buffer.span());
}

Result<Component::Incoming> Component::receive_record(net::Channel& channel,
                                                      int timeout_ms) {
  XMIT_ASSIGN_OR_RETURN(auto bytes, channel.receive(timeout_ms));
  if (!bytes.empty() && bytes[0] == '<') {
    // XML text record: the root element names the format; the record is
    // self-describing by name instead of by id.
    std::string_view text(reinterpret_cast<const char*>(bytes.data()),
                          bytes.size());
    XMIT_ASSIGN_OR_RETURN(auto document, xml::parse_document_strict(text));
    XMIT_ASSIGN_OR_RETURN(
        auto format,
        registry_->by_name(document.root_element().local_name()));
    return Incoming{std::move(bytes), std::move(format)};
  }
  XMIT_ASSIGN_OR_RETURN(auto info, decoder_->inspect(bytes));
  return Incoming{std::move(bytes), std::move(info.sender_format)};
}

Status Component::decode_as(const Incoming& incoming,
                            const std::string& type_name, void* out,
                            Arena& arena) {
  if (!incoming.bytes.empty() && incoming.bytes[0] == '<') {
    XMIT_ASSIGN_OR_RETURN(const auto* codec, codec_for(type_name));
    std::string_view text(reinterpret_cast<const char*>(incoming.bytes.data()),
                          incoming.bytes.size());
    return codec->decode(text, out, arena);
  }
  XMIT_ASSIGN_OR_RETURN(auto token, xmit_->bind(type_name));
  return decoder_->decode(incoming.bytes, *token.format, out, arena);
}

// --------------------------------------------------------------------------

Result<double> write_dataset_file(const std::string& path, int nx, int ny,
                                  int timesteps, std::uint64_t seed) {
  pbio::FormatRegistry registry;
  toolkit::Xmit xmit(registry);
  XMIT_RETURN_IF_ERROR(xmit.load_text(hydrology_schema_xml(), "dataset"));
  XMIT_ASSIGN_OR_RETURN(auto grid_token, xmit.bind("GridSpec"));
  XMIT_ASSIGN_OR_RETURN(auto data_token, xmit.bind("SimpleData"));

  XMIT_ASSIGN_OR_RETURN(auto sink, storage::FileSink::create(path));
  GridSpec grid{nx, ny, 1.0f, 1.0f, 0};
  XMIT_RETURN_IF_ERROR(sink.write(*grid_token.encoder, &grid));

  ShallowWaterModel model(nx, ny, seed);
  for (int t = 0; t < timesteps; ++t) {
    model.step();
    SimpleData frame{};
    frame.timestep = model.timestep();
    frame.size = static_cast<std::int32_t>(model.depth().size());
    frame.data = const_cast<float*>(model.depth().data());
    XMIT_RETURN_IF_ERROR(sink.write(*data_token.encoder, &frame));
  }
  XMIT_RETURN_IF_ERROR(sink.flush());
  return model.checksum();
}

DataFileReader::DataFileReader(int nx, int ny, int timesteps,
                               std::uint64_t seed)
    : Component("data-file-reader"),
      nx_(nx), ny_(ny), timesteps_(timesteps), seed_(seed) {}

DataFileReader::DataFileReader(std::string dataset_path)
    : Component("data-file-reader"), dataset_path_(std::move(dataset_path)) {}

Status DataFileReader::run(net::Channel& out) {
  Status status = dataset_path_.empty() ? run_synthetic(out) : run_replay(out);
  out.close();  // end-of-stream for the downstream component
  return status;
}

Status DataFileReader::run_synthetic(net::Channel& out) {
  GridSpec grid{};
  grid.nx = nx_;
  grid.ny = ny_;
  grid.dx = 1.0f;
  grid.dy = 1.0f;
  grid.halo = 0;
  XMIT_RETURN_IF_ERROR(send_record(out, "GridSpec", &grid));

  ShallowWaterModel model(nx_, ny_, seed_);
  for (int t = 0; t < timesteps_; ++t) {
    model.step();
    SimpleData frame{};
    frame.timestep = model.timestep();
    frame.size = static_cast<std::int32_t>(model.depth().size());
    frame.data = const_cast<float*>(model.depth().data());
    XMIT_RETURN_IF_ERROR(send_record(out, "SimpleData", &frame));
    ++frames_sent_;
  }
  final_checksum_ = model.checksum();
  return Status::ok();
}

Status DataFileReader::run_replay(net::Channel& out) {
  // The file is self-describing: its format frames feed this component's
  // own registry, and the raw records go downstream verbatim (they are
  // already in the shared wire format).
  XMIT_ASSIGN_OR_RETURN(auto source,
                        storage::FileSource::open(dataset_path_, registry()));
  for (;;) {
    XMIT_ASSIGN_OR_RETURN(auto record, source.next_record());
    if (!record.has_value()) break;
    XMIT_ASSIGN_OR_RETURN(auto info, decoder().inspect(*record));
    XMIT_RETURN_IF_ERROR(out.send(*record));
    if (info.sender_format->name() == "SimpleData") ++frames_sent_;
  }
  return Status::ok();
}

// --------------------------------------------------------------------------

Presend::Presend(int stride) : Component("presend"), stride_(stride) {}

Status Presend::run(net::Channel& in, net::Channel& out) {
  Arena arena;
  GridSpec grid{};
  for (;;) {
    auto incoming = receive_record(in);
    if (!incoming.is_ok()) {
      if (incoming.code() == ErrorCode::kNotFound) break;  // clean EOF
      return incoming.status();
    }
    const std::string& type = incoming.value().sender_format->name();
    arena.reset();
    if (type == "GridSpec") {
      XMIT_RETURN_IF_ERROR(decode_as(incoming.value(), "GridSpec", &grid, arena));
      // Downstream sees the subsampled resolution.
      GridSpec reduced = grid;
      reduced.nx = (grid.nx + stride_ - 1) / stride_;
      reduced.ny = (grid.ny + stride_ - 1) / stride_;
      reduced.dx = grid.dx * static_cast<float>(stride_);
      reduced.dy = grid.dy * static_cast<float>(stride_);
      XMIT_RETURN_IF_ERROR(send_record(out, "GridSpec", &reduced));
      continue;
    }
    if (type != "SimpleData")
      return make_error(ErrorCode::kUnsupported,
                        "presend cannot handle format '" + type + "'");
    SimpleData frame{};
    XMIT_RETURN_IF_ERROR(decode_as(incoming.value(), "SimpleData", &frame, arena));
    // Subsample the grid by taking every stride-th cell in each dimension.
    std::vector<float> reduced;
    int rnx = (grid.nx + stride_ - 1) / stride_;
    int rny = (grid.ny + stride_ - 1) / stride_;
    reduced.reserve(static_cast<std::size_t>(rnx) * rny);
    for (int y = 0; y < grid.ny; y += stride_)
      for (int x = 0; x < grid.nx; x += stride_)
        reduced.push_back(frame.data[static_cast<std::size_t>(y) * grid.nx + x]);
    SimpleData smaller{};
    smaller.timestep = frame.timestep;
    smaller.size = static_cast<std::int32_t>(reduced.size());
    smaller.data = reduced.data();
    XMIT_RETURN_IF_ERROR(send_record(out, "SimpleData", &smaller));
    ++frames_forwarded_;
  }
  out.close();
  return Status::ok();
}

// --------------------------------------------------------------------------

Flow2d::Flow2d() : Component("flow2d") {}

Status Flow2d::run(net::Channel& in, net::Channel& out) {
  Arena arena;
  for (;;) {
    auto incoming = receive_record(in);
    if (!incoming.is_ok()) {
      if (incoming.code() == ErrorCode::kNotFound) break;
      return incoming.status();
    }
    const std::string& type = incoming.value().sender_format->name();
    arena.reset();
    if (type == "GridSpec") {
      XMIT_RETURN_IF_ERROR(decode_as(incoming.value(), "GridSpec", &grid_, arena));
      have_grid_ = true;
      XMIT_RETURN_IF_ERROR(send_record(out, "GridSpec", &grid_));
      continue;
    }
    if (type != "SimpleData")
      return make_error(ErrorCode::kUnsupported,
                        "flow2d cannot handle format '" + type + "'");
    if (!have_grid_)
      return make_error(ErrorCode::kInvalidArgument,
                        "flow2d received data before GridSpec");
    SimpleData frame{};
    XMIT_RETURN_IF_ERROR(decode_as(incoming.value(), "SimpleData", &frame, arena));
    if (frame.size != grid_.nx * grid_.ny)
      return make_error(ErrorCode::kInvalidArgument,
                        "frame size does not match grid");

    // Central-difference velocity field from the depth frame.
    const int nx = grid_.nx;
    const int ny = grid_.ny;
    std::vector<float> u(frame.size), v(frame.size);
    auto depth = [&](int x, int y) {
      if (x < 0) x = 0;
      if (x >= nx) x = nx - 1;
      if (y < 0) y = 0;
      if (y >= ny) y = ny - 1;
      return frame.data[static_cast<std::size_t>(y) * nx + x];
    };
    for (int y = 0; y < ny; ++y) {
      for (int x = 0; x < nx; ++x) {
        std::size_t i = static_cast<std::size_t>(y) * nx + x;
        u[i] = -(depth(x + 1, y) - depth(x - 1, y)) * 0.5f / grid_.dx;
        v[i] = -(depth(x, y + 1) - depth(x, y - 1)) * 0.5f / grid_.dy;
      }
    }
    FlowField field{};
    field.timestep = frame.timestep;
    field.nu = frame.size;
    field.u = u.data();
    field.nv = frame.size;
    field.v = v.data();
    XMIT_RETURN_IF_ERROR(send_record(out, "FlowField", &field));
    ++fields_produced_;
  }
  out.close();
  return Status::ok();
}

// --------------------------------------------------------------------------

Coupler::Coupler() : Component("coupler") {}

Status Coupler::run(net::Channel& in, std::vector<net::Channel*> sinks,
                    std::vector<net::Channel*> feedback) {
  last_summaries_.assign(sinks.size(), StatSummary{});
  for (;;) {
    auto incoming = receive_record(in);
    if (!incoming.is_ok()) {
      if (incoming.code() == ErrorCode::kNotFound) break;
      return incoming.status();
    }
    // Forward the raw record to every sink: the coupler routes without
    // decoding (formats are self-identifying, payload passes through).
    for (net::Channel* sink : sinks)
      XMIT_RETURN_IF_ERROR(sink->send(incoming.value().bytes));
    if (incoming.value().sender_format->name() == "FlowField") {
      ++fields_routed_;
      // One summary per routed field arrives on each feedback channel.
      Arena arena;
      for (std::size_t s = 0; s < feedback.size(); ++s) {
        XMIT_ASSIGN_OR_RETURN(auto reply, receive_record(*feedback[s]));
        if (reply.sender_format->name() != "StatSummary")
          return make_error(ErrorCode::kUnsupported,
                            "unexpected feedback format '" +
                                reply.sender_format->name() + "'");
        arena.reset();
        XMIT_RETURN_IF_ERROR(
            decode_as(reply, "StatSummary", &last_summaries_[s], arena));
      }
    }
  }
  for (net::Channel* sink : sinks) sink->close();
  return Status::ok();
}

// --------------------------------------------------------------------------

Vis5dSink::Vis5dSink(std::string name) : Component(std::move(name)) {}

Status Vis5dSink::run(net::Channel& in, net::Channel& feedback) {
  Arena arena;
  for (;;) {
    auto incoming = receive_record(in);
    if (!incoming.is_ok()) {
      if (incoming.code() == ErrorCode::kNotFound) break;
      return incoming.status();
    }
    const std::string& type = incoming.value().sender_format->name();
    arena.reset();
    if (type == "GridSpec") {
      XMIT_RETURN_IF_ERROR(decode_as(incoming.value(), "GridSpec", &grid_, arena));
      have_grid_ = true;
      continue;
    }
    if (type != "FlowField")
      return make_error(ErrorCode::kUnsupported,
                        "vis5d cannot handle format '" + type + "'");
    FlowField field{};
    XMIT_RETURN_IF_ERROR(decode_as(incoming.value(), "FlowField", &field, arena));
    if (field.nu != field.nv || field.nu <= 0)
      return make_error(ErrorCode::kInvalidArgument, "malformed flow field");

    // "Render": compute speed statistics over the field.
    StatSummary summary{};
    summary.timestep = field.timestep;
    summary.cells = field.nu;
    summary.min = std::numeric_limits<float>::max();
    summary.max = std::numeric_limits<float>::lowest();
    double sum = 0, sum_squares = 0;
    for (int i = 0; i < field.nu; ++i) {
      float speed = std::sqrt(field.u[i] * field.u[i] + field.v[i] * field.v[i]);
      summary.min = std::min(summary.min, speed);
      summary.max = std::max(summary.max, speed);
      sum += speed;
      sum_squares += static_cast<double>(speed) * speed;
    }
    summary.mean = static_cast<float>(sum / field.nu);
    summary.stddev = static_cast<float>(std::sqrt(
        std::max(0.0, sum_squares / field.nu -
                          static_cast<double>(summary.mean) * summary.mean)));
    summary.total = static_cast<float>(sum);
    if (have_grid_ && grid_.nx > 0 && grid_.ny > 0) {
      auto speed_at = [&](int x, int y) {
        std::size_t i = static_cast<std::size_t>(y) * grid_.nx + x;
        return std::sqrt(field.u[i] * field.u[i] + field.v[i] * field.v[i]);
      };
      summary.corners[0] = speed_at(0, 0);
      summary.corners[1] = speed_at(grid_.nx - 1, 0);
      summary.corners[2] = speed_at(0, grid_.ny - 1);
      summary.corners[3] = speed_at(grid_.nx - 1, grid_.ny - 1);
    }
    last_summary_ = summary;
    ++frames_rendered_;
    XMIT_RETURN_IF_ERROR(send_record(feedback, "StatSummary", &summary));
  }
  feedback.close();
  return Status::ok();
}

}  // namespace xmit::hydrology
