#include "hydro.hpp"

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

using xmit::ErrorCode;
using xmit::Status;
namespace pbio = xmit::pbio;

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kControl: return "ControlEvent";
    case Kind::kGrid: return "GridSpec";
    case Kind::kStat: return "StatSummary";
    case Kind::kVis: return "Vis5dFrame";
    case Kind::kJoin: return "JoinRequest";
  }
  return "?";
}

void stamp(Kind kind, AnyRecord& r, std::uint64_t index) {
  const auto i32 = static_cast<std::int32_t>(index & 0x7fffffff);
  switch (kind) {
    case Kind::kControl: r.control.command = i32; break;
    case Kind::kGrid: r.grid.nx = i32; break;
    case Kind::kStat: r.stat.timestep = i32; break;
    case Kind::kVis: r.vis.timestep = i32; break;
    case Kind::kJoin: r.join.pid = index; break;
  }
}

namespace {

bool same_floats(const float* a, const float* b, std::int32_t n) {
  if (n == 0) return true;
  if (a == nullptr || b == nullptr) return false;
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

bool same_string(const char* a, const char* b) {
  if (a == nullptr || b == nullptr) return a == b;
  return std::strcmp(a, b) == 0;
}

}  // namespace

bool same(Kind kind, const AnyRecord& a, const AnyRecord& b) {
  switch (kind) {
    case Kind::kControl:
      return a.control.command == b.control.command &&
             a.control.value == b.control.value &&
             a.control.flag == b.control.flag;
    case Kind::kGrid:
      return a.grid.nx == b.grid.nx && a.grid.ny == b.grid.ny &&
             a.grid.dx == b.grid.dx && a.grid.dy == b.grid.dy &&
             a.grid.halo == b.grid.halo;
    case Kind::kStat:
      return a.stat.timestep == b.stat.timestep &&
             a.stat.cells == b.stat.cells && a.stat.min == b.stat.min &&
             a.stat.max == b.stat.max && a.stat.mean == b.stat.mean &&
             a.stat.stddev == b.stat.stddev && a.stat.total == b.stat.total &&
             same_floats(a.stat.corners, b.stat.corners, 4);
    case Kind::kVis:
      return a.vis.timestep == b.vis.timestep &&
             a.vis.levels_used == b.vis.levels_used &&
             same_floats(a.vis.levels, b.vis.levels, 36);
    case Kind::kJoin:
      return same_string(a.join.name, b.join.name) &&
             a.join.server == b.join.server &&
             a.join.ip_addr == b.join.ip_addr && a.join.pid == b.join.pid &&
             a.join.ds_addr == b.join.ds_addr;
  }
  return false;
}

std::size_t payload_bytes(Kind kind, const AnyRecord& r) {
  switch (kind) {
    case Kind::kControl: return sizeof(hy::ControlEvent);
    case Kind::kGrid: return sizeof(hy::GridSpec);
    case Kind::kStat: return sizeof(hy::StatSummary);
    case Kind::kVis: return sizeof(hy::Vis5dFrame);
    case Kind::kJoin:
      return sizeof(std::uint32_t) + 3 * sizeof(std::uint64_t) +
             (r.join.name ? std::strlen(r.join.name) : 0);
  }
  return 0;
}

DurableView durable_view_of(Kind kind, const AnyRecord& r) {
  DurableView view{};
  if (kind == Kind::kStat) {
    view.timestep = r.stat.timestep;
    view.cells = r.stat.cells;
    view.min = r.stat.min;
    view.max = r.stat.max;
    view.mean = r.stat.mean;
    view.stddev = r.stat.stddev;
    view.total = r.stat.total;
    std::memcpy(view.corners, r.stat.corners, sizeof(view.corners));
  } else if (kind == Kind::kVis) {
    view.timestep = r.vis.timestep;
    view.levels_used = r.vis.levels_used;
    std::memcpy(view.levels, r.vis.levels, sizeof(view.levels));
  }
  return view;
}

bool same_view(const DurableView& a, const DurableView& b) {
  return a.timestep == b.timestep && a.cells == b.cells && a.min == b.min &&
         a.max == b.max && a.mean == b.mean && a.stddev == b.stddev &&
         a.total == b.total && same_floats(a.corners, b.corners, 4) &&
         a.levels_used == b.levels_used && same_floats(a.levels, b.levels, 36);
}

std::size_t Pool::add_small(Kind kind) {
  Entry entry;
  entry.kind = kind;
  AnyRecord& r = entry.record;
  auto f = [&] { return static_cast<float>(rng_.uniform() * 200.0 - 100.0); };
  auto i32 = [&](std::int64_t lo, std::int64_t hi) {
    return static_cast<std::int32_t>(rng_.range(lo, hi));
  };
  switch (kind) {
    case Kind::kControl:
      r.control = {0, f(), i32(0, 7)};
      break;
    case Kind::kGrid:
      r.grid = {0, i32(16, 1024), f(), f(), i32(0, 4)};
      break;
    case Kind::kStat:
      r.stat = {0, i32(1, 1 << 20), f(), f(), f(), f(), f(), {f(), f(), f(), f()}};
      break;
    case Kind::kVis:
      r.vis.timestep = 0;
      r.vis.levels_used = i32(1, 36);
      for (float& level : r.vis.levels) level = f();
      break;
    case Kind::kJoin: {
      const auto length = static_cast<std::size_t>(rng_.range(8, 40));
      strings_.push_back(rng_.identifier(length));
      r.join.name = strings_.back().data();
      r.join.server = rng_.next_u32();
      r.join.ip_addr = rng_.next_u64();
      r.join.pid = 0;
      r.join.ds_addr = rng_.next_u64();
      break;
    }
  }
  stamp(kind, r, 0);
  entry.payload = payload_bytes(kind, r);
  entries_.push_back(std::move(entry));
  return entries_.size() - 1;
}

namespace {

std::vector<pbio::IOField> fields_of(const hy::CompiledFormat& format) {
  std::vector<pbio::IOField> fields;
  for (std::size_t f = 0; f < format.row_count; ++f)
    fields.push_back({format.rows[f].name, format.rows[f].type,
                      format.rows[f].size, format.rows[f].offset});
  return fields;
}

std::vector<pbio::IOField> durable_view_fields() {
  auto at = [](std::size_t offset) { return static_cast<std::uint32_t>(offset); };
  return {
      {"timestep", "integer", 4, at(offsetof(DurableView, timestep))},
      {"cells", "integer", 4, at(offsetof(DurableView, cells))},
      {"min", "float", 4, at(offsetof(DurableView, min))},
      {"max", "float", 4, at(offsetof(DurableView, max))},
      {"mean", "float", 4, at(offsetof(DurableView, mean))},
      {"stddev", "float", 4, at(offsetof(DurableView, stddev))},
      {"total", "float", 4, at(offsetof(DurableView, total))},
      {"corners", "float[4]", 4, at(offsetof(DurableView, corners))},
      {"levels_used", "integer", 4, at(offsetof(DurableView, levels_used))},
      {"levels", "float[36]", 4, at(offsetof(DurableView, levels))},
  };
}

}  // namespace

HostFormats::HostFormats() {
  std::size_t count = 0;
  const hy::CompiledFormat* compiled = hy::compiled_formats(&count);
  for (std::size_t k = 0; k < kKindCount; ++k) {
    const char* name = kind_name(static_cast<Kind>(k));
    for (std::size_t c = 0; c < count; ++c) {
      if (std::strcmp(compiled[c].name, name) != 0) continue;
      auto format = registry_.register_format(
          compiled[c].name, fields_of(compiled[c]), compiled[c].struct_size);
      auto encoder = format.is_ok() ? pbio::Encoder::make(format.value())
                                    : xmit::Result<pbio::Encoder>(format.status());
      if (!encoder.is_ok()) {
        std::fprintf(stderr, "perfbench: compiled format %s: %s\n", name,
                     encoder.status().to_string().c_str());
        std::exit(3);
      }
      formats_[k] = format.value();
      encoders_[k].emplace(std::move(encoder).value());
      ids_.emplace_back(formats_[k]->id(), static_cast<Kind>(k));
    }
  }
  auto view = registry_.register_format("DurableView", durable_view_fields(),
                                        sizeof(DurableView));
  if (!view.is_ok()) {
    std::fprintf(stderr, "perfbench: DurableView: %s\n",
                 view.status().to_string().c_str());
    std::exit(3);
  }
  durable_view_ = view.value();
}

std::optional<Kind> HostFormats::kind_of(pbio::FormatId id) const {
  for (const auto& [known, kind] : ids_)
    if (known == id) return kind;
  return std::nullopt;
}

Status check_fig7(Kind kind, const pbio::FormatPtr& discovered,
                  const HostFormats& host, const AnyRecord& sample) {
  if (discovered->id() != host.of(kind)->id())
    return Status(ErrorCode::kInternal,
                  std::string("fig7: XMIT format id differs from compiled-in "
                              "id for ") +
                      kind_name(kind));
  auto encoder = pbio::Encoder::make(discovered);
  if (!encoder.is_ok()) return encoder.status();
  auto via_xmit = encoder.value().encode_to_vector(&sample);
  auto via_compiled = host.encoder(kind).encode_to_vector(&sample);
  if (!via_xmit.is_ok()) return via_xmit.status();
  if (!via_compiled.is_ok()) return via_compiled.status();
  if (via_xmit.value() != via_compiled.value())
    return Status(ErrorCode::kInternal,
                  std::string("fig7: wire bytes differ for ") + kind_name(kind));
  return Status::ok();
}

Status check_reference(const pbio::Decoder& decoder,
                       std::span<const std::uint8_t> bytes, Kind kind,
                       const HostFormats& host) {
  xmit::Arena compiled_arena, reference_arena;
  AnyRecord compiled{}, reference{};
  const pbio::Format& receiver = *host.of(kind);
  Status a = decoder.decode(bytes, receiver, &compiled, compiled_arena);
  if (!a.is_ok()) return a;
  Status b = decoder.decode_reference(bytes, receiver, &reference,
                                      reference_arena);
  if (!b.is_ok()) return b;
  if (!same(kind, compiled, reference))
    return Status(ErrorCode::kInternal,
                  std::string("decode differs from decode_reference for ") +
                      kind_name(kind));
  return Status::ok();
}

}  // namespace perfbench
