#include "fuzz/drivers.hpp"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "common/arena.hpp"
#include "common/limits.hpp"
#include "common/rng.hpp"
#include "net/channel.hpp"
#include "pbio/decode.hpp"
#include "pbio/dynrecord.hpp"
#include "pbio/encode.hpp"
#include "pbio/format_wire.hpp"
#include "pbio/registry.hpp"
#include "rpc/giop.hpp"
#include "rpc/xmlrpc.hpp"
#include "session/session.hpp"
#include "storage/framing.hpp"
#include "xmit/format_set.hpp"
#include "xml/parser.hpp"
#include "xsd/parse.hpp"

namespace xmit::fuzz {
namespace {

std::string_view as_text(std::span<const std::uint8_t> input) {
  return {reinterpret_cast<const char*>(input.data()), input.size()};
}

std::vector<std::uint8_t> as_bytes(std::string_view text) {
  return {text.begin(), text.end()};
}

// Budgets for fuzzing: tight enough that a blown budget costs microseconds,
// loose enough that every valid seed decodes cleanly.
DecodeLimits fuzz_limits() {
  DecodeLimits limits;
  limits.max_depth = 64;
  limits.max_elements = 1u << 12;
  limits.max_string_bytes = 1u << 16;
  limits.max_entity_expansions = 1u << 12;
  limits.max_total_alloc = 1u << 20;
  limits.max_array_elements = 1u << 12;
  limits.max_message_bytes = 1u << 20;
  return limits;
}

// --- xml -------------------------------------------------------------------

std::vector<std::vector<std::uint8_t>> xml_seeds() {
  return {
      as_bytes("<?xml version=\"1.0\"?><root a=\"1\" b=\"&amp;x\">"
               "<child><grand>text &#65; &#x42;</grand></child>"
               "<!-- comment --><![CDATA[raw <bytes>]]></root>"),
      as_bytes("<m><n x=\"&lt;&gt;&quot;&apos;\"/><n x=\"2\"/>tail</m>"),
  };
}

Status run_xml(std::span<const std::uint8_t> input) {
  xml::ParseOptions options;
  options.limits = fuzz_limits();
  return xml::parse_document(as_text(input), options).status();
}

// --- xsd -------------------------------------------------------------------

std::vector<std::vector<std::uint8_t>> xsd_seeds() {
  return {
      as_bytes("<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">"
               "<xsd:complexType name=\"Grid\"><xsd:sequence>"
               "<xsd:element name=\"rows\" type=\"xsd:int\"/>"
               "<xsd:element name=\"cells\" type=\"xsd:double\" "
               "maxOccurs=\"rows\"/>"
               "<xsd:element name=\"label\" type=\"xsd:string\"/>"
               "<xsd:element name=\"corners\" type=\"xsd:float\" "
               "maxOccurs=\"4\"/>"
               "</xsd:sequence></xsd:complexType></xsd:schema>"),
      as_bytes("<xsd:complexType name=\"P\" "
               "xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">"
               "<xsd:element name=\"x\" type=\"xsd:int\" minOccurs=\"0\"/>"
               "</xsd:complexType>"),
  };
}

Status run_xsd(std::span<const std::uint8_t> input) {
  return xsd::parse_schema_text(as_text(input), fuzz_limits()).status();
}

// --- pbio records ----------------------------------------------------------

struct FuzzMessage {
  std::int32_t id;
  std::int32_t n;
  float* data;
  char* note;
};

struct PbioState {
  pbio::FormatRegistry registry;
  pbio::Decoder decoder{registry};
  pbio::FormatPtr host_format;
  pbio::FormatPtr foreign_format;
  std::vector<std::vector<std::uint8_t>> seeds;

  PbioState() {
    host_format =
        registry
            .register_format(
                "FuzzMessage",
                {{"id", "integer", 4, offsetof(FuzzMessage, id)},
                 {"n", "integer", 4, offsetof(FuzzMessage, n)},
                 {"data", "float[n]", 4, offsetof(FuzzMessage, data)},
                 {"note", "string", sizeof(char*),
                  offsetof(FuzzMessage, note)}},
                sizeof(FuzzMessage))
            .value();
    // A big-endian 4-byte-pointer sender: records built against this
    // format drive the conversion path, not just identity.
    pbio::ArchInfo foreign;
    foreign.byte_order = ByteOrder::kBig;
    foreign.pointer_size = 4;
    foreign.long_size = 4;
    foreign.max_align = 8;
    foreign_format = registry
                         .adopt(pbio::Format::make("FuzzMessage",
                                                   {{"id", "integer", 4, 0},
                                                    {"n", "integer", 4, 4},
                                                    {"data", "float[n]", 4, 8},
                                                    {"note", "string", 4, 12}},
                                                   16, foreign)
                                    .value())
                         .value();
    decoder.set_limits(fuzz_limits());

    std::vector<float> payload = {1.5f, -2.5f, 3.5f};
    char note[] = "fuzz-note";
    FuzzMessage host_record{7, 3, payload.data(), note};
    auto encoder = pbio::Encoder::make(host_format).value();
    seeds.push_back(encoder.encode_to_vector(&host_record).value());

    pbio::RecordBuilder builder(foreign_format);
    (void)builder.set_int("id", 9);
    const std::int64_t ints[] = {4, 5};
    (void)builder.set_int_array("data", ints);
    (void)builder.set_string("note", "foreign");
    seeds.push_back(builder.build().value());
  }
};

PbioState& pbio_state() {
  static PbioState state;
  return state;
}

std::vector<std::vector<std::uint8_t>> pbio_seeds() {
  return pbio_state().seeds;
}

Status run_pbio(std::span<const std::uint8_t> input) {
  PbioState& state = pbio_state();
  auto info = state.decoder.inspect(input);

  Arena arena;
  FuzzMessage out{};
  Status verdict =
      state.decoder.decode(input, *state.host_format, &out, arena);

  std::vector<std::uint8_t> mutable_copy(input.begin(), input.end());
  (void)state.decoder.decode_in_place(mutable_copy, *state.host_format);

  if (info.is_ok()) {
    auto reader =
        pbio::RecordReader::make(input, info.value().sender_format);
    if (reader.is_ok()) {
      (void)reader.value().get_int("n");
      (void)reader.value().get_float_array("data");
      (void)reader.value().get_string("note");
    }
  }
  return verdict;
}

// --- format metadata -------------------------------------------------------

std::vector<std::vector<std::uint8_t>> format_wire_seeds() {
  pbio::ArchInfo arch = pbio::ArchInfo::host();
  auto inner = pbio::Format::make("Point",
                                  {{"x", "float", 8, 0}, {"y", "float", 8, 8}},
                                  16, arch)
                   .value();
  auto outer =
      pbio::Format::make("Track",
                         {{"count", "integer", 4, 0},
                          {"points", "Point[4]", 16, 8},
                          {"name", "string", sizeof(char*), 72}},
                         80, arch, {inner})
          .value();
  return {pbio::serialize_format(*outer), pbio::serialize_format(*inner)};
}

Status run_format_wire(std::span<const std::uint8_t> input) {
  return pbio::deserialize_format(input, fuzz_limits()).status();
}

// --- format set ------------------------------------------------------------

std::vector<std::vector<std::uint8_t>> format_set_seeds() {
  std::vector<toolkit::SetEntry> mixed;
  mixed.push_back(
      {toolkit::SetEntryKind::kSchemaDocument, "grid.xsd",
       as_bytes("<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">"
                "<xsd:complexType name=\"Cell\"><xsd:sequence>"
                "<xsd:element name=\"v\" type=\"xsd:double\"/>"
                "</xsd:sequence></xsd:complexType></xsd:schema>")});
  mixed.push_back({toolkit::SetEntryKind::kFormatBlob, "00000000deadbeef",
                   format_wire_seeds()[1]});
  std::vector<toolkit::SetEntry> blobs;
  blobs.push_back({toolkit::SetEntryKind::kFormatBlob, "0000000000000001",
                   format_wire_seeds()[0]});
  return {toolkit::build_format_set(mixed), toolkit::build_format_set(blobs)};
}

Status run_format_set(std::span<const std::uint8_t> input) {
  return toolkit::parse_format_set(input, fuzz_limits()).status();
}

// --- giop ------------------------------------------------------------------

std::vector<std::vector<std::uint8_t>> giop_seeds() {
  rpc::GiopRequest request;
  request.request_id = 42;
  request.object_key = "sensor/7";
  request.operation = "read";
  request.body = {1, 0, 0, 0, 0, 0, 0, 0, 9, 9};
  rpc::GiopReply reply;
  reply.request_id = 42;
  reply.body = {1, 0, 0, 0, 7, 7};
  return {
      rpc::encode_giop_request(request, ByteOrder::kLittle),
      rpc::encode_giop_request(request, ByteOrder::kBig),
      rpc::encode_giop_reply(reply, ByteOrder::kLittle),
  };
}

Status run_giop(std::span<const std::uint8_t> input) {
  return rpc::parse_giop_message(input, fuzz_limits()).status();
}

// --- xmlrpc ----------------------------------------------------------------

std::vector<std::vector<std::uint8_t>> xmlrpc_seeds() {
  rpc::MethodCall call;
  call.method = "grid.update";
  call.params.push_back(rpc::Value::from_int(17));
  call.params.push_back(rpc::Value::array({
      rpc::Value::from_double(2.5),
      rpc::Value::from_string("cell<7>"),
  }));
  call.params.push_back(rpc::Value::structure({
      {"name", rpc::Value::from_string("a")},
      {"on", rpc::Value::from_bool(true)},
  }));
  return {
      as_bytes(rpc::write_method_call(call)),
      as_bytes(rpc::write_method_response(rpc::Value::from_int(1))),
      as_bytes(rpc::write_fault(-3, "boom")),
  };
}

Status run_xmlrpc(std::span<const std::uint8_t> input) {
  auto call = rpc::parse_method_call(as_text(input), fuzz_limits());
  auto response = rpc::parse_method_response(as_text(input), fuzz_limits());
  return call.is_ok() ? call.status() : response.status();
}

// --- session ---------------------------------------------------------------

// The session driver's input is a tiny container: repeated
// [u16 LE length | frame bytes] sub-frames, each delivered to the
// receiving MessageSession as one channel message. Mutations therefore
// reorder, corrupt, and truncate whole frames as well as their interiors.
//
// An input that starts with kStreamMarker is instead a raw wire image,
// u32 length prefixes included (hostile ones too): see run_session_stream.
constexpr std::size_t kMaxSessionFrames = 32;
constexpr std::size_t kMaxSessionBytes = 60000;  // stay under socket buffers
constexpr std::uint8_t kStreamMarker[] = {0xFF, 0xFF, 'W', 'S'};
constexpr std::size_t kMaxStreamChunk = 4096;

std::vector<std::uint8_t> pack_frames(
    const std::vector<std::vector<std::uint8_t>>& frames) {
  std::vector<std::uint8_t> out;
  for (const auto& frame : frames) {
    out.push_back(static_cast<std::uint8_t>(frame.size() & 0xFF));
    out.push_back(static_cast<std::uint8_t>((frame.size() >> 8) & 0xFF));
    out.insert(out.end(), frame.begin(), frame.end());
  }
  return out;
}

// A tag-0x02 data frame: [0x02 | u64 LE seq | record bytes].
std::vector<std::uint8_t> record_frame(std::uint64_t seq,
                                       std::span<const std::uint8_t> record) {
  std::vector<std::uint8_t> frame;
  frame.push_back(0x02);
  for (int shift = 0; shift < 64; shift += 8)
    frame.push_back(static_cast<std::uint8_t>(seq >> shift));
  frame.insert(frame.end(), record.begin(), record.end());
  return frame;
}

// A tag-0x01 announcement frame: [0x01 | serialized format].
std::vector<std::uint8_t> announce_frame(const pbio::Format& format) {
  std::vector<std::uint8_t> frame;
  frame.push_back(0x01);
  auto meta = pbio::serialize_format(format);
  frame.insert(frame.end(), meta.begin(), meta.end());
  return frame;
}

// A chunked-stream input: the marker, then each frame behind its u32 LE
// length prefix, exactly as a channel puts it on the wire.
std::vector<std::uint8_t> wire_stream(
    const std::vector<std::vector<std::uint8_t>>& frames) {
  std::vector<std::uint8_t> out(std::begin(kStreamMarker),
                                std::end(kStreamMarker));
  for (const auto& frame : frames) {
    for (int shift = 0; shift < 32; shift += 8)
      out.push_back(static_cast<std::uint8_t>(frame.size() >> shift));
    out.insert(out.end(), frame.begin(), frame.end());
  }
  return out;
}

}  // namespace

std::vector<std::vector<std::uint8_t>> session_stream_seeds() {
  PbioState& state = pbio_state();
  // A record several times the channel's first read buffer, so seeds
  // already exercise its growth.
  std::vector<float> payload(3000, 0.25f);
  char note[] = "large";
  FuzzMessage large{11, static_cast<std::int32_t>(payload.size()),
                    payload.data(), note};
  auto encoder = pbio::Encoder::make(state.host_format).value();
  const auto large_record = encoder.encode_to_vector(&large).value();
  const auto announce = announce_frame(*state.host_format);
  return {
      wire_stream({announce, record_frame(1, state.seeds[0]),
                   record_frame(2, state.seeds[0])}),
      wire_stream({announce, announce_frame(*state.foreign_format),
                   record_frame(1, large_record),
                   record_frame(2, state.seeds[1])}),
  };
}

namespace {

std::vector<std::vector<std::uint8_t>> session_seeds() {
  PbioState& state = pbio_state();
  const auto announce = announce_frame(*state.host_format);
  const auto foreign_announce = announce_frame(*state.foreign_format);
  std::vector<std::vector<std::uint8_t>> seeds = {
      pack_frames({announce, record_frame(1, state.seeds[0])}),
      pack_frames({announce, foreign_announce,
                   record_frame(1, state.seeds[1]),
                   record_frame(2, state.seeds[0])}),
  };
  for (auto& seed : session_stream_seeds()) seeds.push_back(std::move(seed));
  return seeds;
}

// One receiver takes every frame it can without waiting. Returns true when
// it can take no more bytes: end of stream, a dead stream or a poisoned
// session. The last failure is kept in `last`.
bool drain_receiver(session::MessageSession& receiver, Status& last) {
  for (;;) {
    auto incoming = receiver.receive_view(0);
    if (incoming.is_ok()) continue;
    const ErrorCode code = incoming.code();
    if (code == ErrorCode::kTimeout) return false;  // wants more bytes
    if (code == ErrorCode::kNotFound) return true;  // clean EOF
    last = incoming.status();
    if (code == ErrorCode::kIoError || receiver.poisoned()) return true;
  }
}

// Chunked-stream mode: the raw wire image is written unframed, in chunk
// sizes drawn from a seed hashed from the input, into a plain and then a
// flow-controlled receiver, each draining what it can between chunks. It
// drives the channel's read buffer through header splits, compaction,
// growth and the length-limit check.
Status run_session_stream(std::span<const std::uint8_t> stream) {
  stream = stream.first(std::min(stream.size(), kMaxSessionBytes));
  std::uint64_t seed = 0xcbf29ce484222325ull;  // FNV-1a
  for (std::uint8_t byte : stream) seed = (seed ^ byte) * 0x100000001b3ull;

  Status last = Status::ok();
  for (bool flow_control : {false, true}) {
    pbio::FormatRegistry receiver_registry;
    auto pipe = net::Channel::pipe();
    if (!pipe.is_ok()) return pipe.status();
    net::Channel sender = std::move(pipe.value().first);
    session::SessionOptions options;
    options.flow_control = flow_control;
    session::MessageSession receiver(std::move(pipe.value().second),
                                     receiver_registry, options);
    DecodeLimits limits = fuzz_limits();
    limits.max_malformed_frames = 8;
    receiver.set_limits(limits);

    Rng chunks(seed);
    bool stopped = false;
    for (std::size_t at = 0; at < stream.size() && !stopped;) {
      const std::size_t most = 1 + chunks.below(kMaxStreamChunk);
      const std::size_t n =
          std::min<std::size_t>(1 + chunks.below(most), stream.size() - at);
      if (!sender.send_raw(stream.subspan(at, n)).is_ok()) break;
      at += n;
      stopped = drain_receiver(receiver, last);
    }
    // A plain receiver sees the end of the stream; a flow-controlled one
    // keeps its peer open (see run_session_credit) and stops at the
    // first would-block.
    if (!stopped && !flow_control) {
      sender.close();
      (void)drain_receiver(receiver, last);
    }
  }
  return last;
}

Status run_session(std::span<const std::uint8_t> input) {
  if (input.size() >= sizeof(kStreamMarker) &&
      std::equal(std::begin(kStreamMarker), std::end(kStreamMarker),
                 input.begin()))
    return run_session_stream(input.subspan(sizeof(kStreamMarker)));
  pbio::FormatRegistry receiver_registry;
  auto pipe = net::Channel::pipe();
  if (!pipe.is_ok()) return pipe.status();
  net::Channel sender = std::move(pipe.value().first);
  session::MessageSession receiver(std::move(pipe.value().second),
                                   receiver_registry);
  DecodeLimits limits = fuzz_limits();
  limits.max_malformed_frames = 8;
  receiver.set_limits(limits);

  std::size_t at = 0;
  std::size_t frames = 0;
  std::size_t total = 0;
  while (at + 2 <= input.size() && frames < kMaxSessionFrames &&
         total < kMaxSessionBytes) {
    std::size_t length = input[at] | (std::size_t(input[at + 1]) << 8);
    at += 2;
    length = std::min(length, input.size() - at);
    if (!sender.send(std::span(input.data() + at, length)).is_ok()) break;
    at += length;
    total += length;
    ++frames;
  }
  sender.close();

  Status last = Status::ok();
  for (std::size_t i = 0; i < frames + 2; ++i) {
    auto incoming = receiver.receive(1000);
    if (incoming.is_ok()) continue;
    if (incoming.code() == ErrorCode::kNotFound) break;  // clean EOF
    last = incoming.status();
    if (last.code() == ErrorCode::kTimeout || receiver.poisoned()) break;
  }
  return last;
}

// --- session handshake -----------------------------------------------------

// The resumption control plane: tag-0x03 handshakes plus tag-0x04/0x05
// ping/pong acks. The driver establishes a live session identity with an
// honest initiate, then feeds the (mutated) input as follow-up frames —
// so mutations attack epoch rules, session-id pinning and ack bounds on
// a session that already has state to corrupt.
constexpr std::uint64_t kHandshakeSid = 0x5E55102D;

std::vector<std::uint8_t> handshake_frame(std::uint8_t flags,
                                          std::uint64_t sid,
                                          std::uint32_t epoch,
                                          std::uint64_t last_seq) {
  std::vector<std::uint8_t> frame;
  frame.push_back(0x03);
  frame.push_back(flags);
  for (int shift = 0; shift < 64; shift += 8)
    frame.push_back(static_cast<std::uint8_t>(sid >> shift));
  for (int shift = 0; shift < 32; shift += 8)
    frame.push_back(static_cast<std::uint8_t>(epoch >> shift));
  for (int shift = 0; shift < 64; shift += 8)
    frame.push_back(static_cast<std::uint8_t>(last_seq >> shift));
  return frame;
}

std::vector<std::uint8_t> ack_frame(std::uint8_t tag, std::uint64_t last_seq) {
  std::vector<std::uint8_t> frame;
  frame.push_back(tag);
  for (int shift = 0; shift < 64; shift += 8)
    frame.push_back(static_cast<std::uint8_t>(last_seq >> shift));
  return frame;
}

std::vector<std::vector<std::uint8_t>> session_handshake_seeds() {
  PbioState& state = pbio_state();
  std::vector<std::uint8_t> announce;
  announce.push_back(0x01);
  auto meta = pbio::serialize_format(*state.host_format);
  announce.insert(announce.end(), meta.begin(), meta.end());
  return {
      // A legitimate resume: higher-epoch initiate, then data.
      pack_frames({handshake_frame(0x01, kHandshakeSid, 6, 0), announce,
                   record_frame(1, state.seeds[0])}),
      // A reply at the current epoch, plus ping/pong chatter.
      pack_frames({handshake_frame(0x00, kHandshakeSid, 5, 0),
                   ack_frame(0x04, 0), ack_frame(0x05, 0)}),
  };
}

Status run_session_handshake(std::span<const std::uint8_t> input) {
  pbio::FormatRegistry receiver_registry;
  auto pipe = net::Channel::pipe();
  if (!pipe.is_ok()) return pipe.status();
  net::Channel sender = std::move(pipe.value().first);
  session::MessageSession receiver(std::move(pipe.value().second),
                                   receiver_registry);
  DecodeLimits limits = fuzz_limits();
  limits.max_malformed_frames = 8;
  receiver.set_limits(limits);

  // Honest preamble: the session adopts this id and epoch 5.
  if (!sender.send(handshake_frame(0x01, kHandshakeSid, 5, 0)).is_ok())
    return Status::ok();

  std::size_t at = 0;
  std::size_t frames = 0;
  std::size_t total = 0;
  while (at + 2 <= input.size() && frames < kMaxSessionFrames &&
         total < kMaxSessionBytes) {
    std::size_t length = input[at] | (std::size_t(input[at + 1]) << 8);
    at += 2;
    length = std::min(length, input.size() - at);
    if (!sender.send(std::span(input.data() + at, length)).is_ok()) break;
    at += length;
    total += length;
    ++frames;
  }
  sender.close();

  Status last = Status::ok();
  for (std::size_t i = 0; i < frames + 3; ++i) {
    auto incoming = receiver.receive(200);
    if (incoming.is_ok()) continue;
    if (incoming.code() == ErrorCode::kNotFound) break;  // clean EOF
    last = incoming.status();
    if (last.code() == ErrorCode::kTimeout || receiver.poisoned()) break;
  }
  return last;
}

// --- session credit --------------------------------------------------------

// The flow-control plane: tag-0x08 credit grants and tag-0x09 shed
// notices against a flow-controlled receiver. The driver feeds mutated
// control frames to a session that accounts credit, so mutations attack
// the window arithmetic (zero grants, u64 reach wrap, rollback) and the
// shed-range dedup rules.
std::vector<std::uint8_t> credit_frame(std::uint64_t ack,
                                       std::uint64_t window_records,
                                       std::uint64_t window_bytes) {
  std::vector<std::uint8_t> frame;
  frame.push_back(0x08);
  for (int shift = 0; shift < 64; shift += 8)
    frame.push_back(static_cast<std::uint8_t>(ack >> shift));
  for (int shift = 0; shift < 64; shift += 8)
    frame.push_back(static_cast<std::uint8_t>(window_records >> shift));
  for (int shift = 0; shift < 64; shift += 8)
    frame.push_back(static_cast<std::uint8_t>(window_bytes >> shift));
  return frame;
}

std::vector<std::uint8_t> shed_frame(std::uint64_t first,
                                     std::uint64_t last) {
  std::vector<std::uint8_t> frame;
  frame.push_back(0x09);
  for (int shift = 0; shift < 64; shift += 8)
    frame.push_back(static_cast<std::uint8_t>(first >> shift));
  for (int shift = 0; shift < 64; shift += 8)
    frame.push_back(static_cast<std::uint8_t>(last >> shift));
  return frame;
}

std::vector<std::vector<std::uint8_t>> session_credit_seeds() {
  PbioState& state = pbio_state();
  std::vector<std::uint8_t> announce;
  announce.push_back(0x01);
  auto meta = pbio::serialize_format(*state.host_format);
  announce.insert(announce.end(), meta.begin(), meta.end());
  return {
      // An honest grant, then data the window covers.
      pack_frames({credit_frame(0, 64, 1u << 16), announce,
                   record_frame(1, state.seeds[0])}),
      // A shed notice advancing the dedup window, then the next record.
      pack_frames({credit_frame(0, 32, 1u << 15), shed_frame(1, 4),
                   announce, record_frame(5, state.seeds[0]),
                   ack_frame(0x04, 0)}),
  };
}

Status run_session_credit(std::span<const std::uint8_t> input) {
  pbio::FormatRegistry receiver_registry;
  auto pipe = net::Channel::pipe();
  if (!pipe.is_ok()) return pipe.status();
  net::Channel sender = std::move(pipe.value().first);
  session::SessionOptions options;
  options.flow_control = true;
  session::MessageSession receiver(std::move(pipe.value().second),
                                   receiver_registry, options);
  DecodeLimits limits = fuzz_limits();
  limits.max_malformed_frames = 8;
  receiver.set_limits(limits);

  std::size_t at = 0;
  std::size_t frames = 0;
  std::size_t total = 0;
  while (at + 2 <= input.size() && frames < kMaxSessionFrames &&
         total < kMaxSessionBytes) {
    std::size_t length = input[at] | (std::size_t(input[at + 1]) << 8);
    at += 2;
    length = std::min(length, input.size() - at);
    if (!sender.send(std::span(input.data() + at, length)).is_ok()) break;
    at += length;
    total += length;
    ++frames;
  }

  // The sender end stays open: a flow-controlled receiver writes grants
  // and pongs back, and a closed peer would turn every one of those into
  // a transport loss before the inbound frames were even processed. The
  // timeout-break below ends the loop instead of an EOF — and since every
  // frame is already in the socketpair buffer, only the terminal receive
  // ever waits the timeout out, so it can be tiny.
  Status last = Status::ok();
  for (std::size_t i = 0; i < frames + 3; ++i) {
    auto incoming = receiver.receive(2);
    if (incoming.is_ok()) continue;
    if (incoming.code() == ErrorCode::kNotFound) break;   // clean EOF
    if (incoming.code() == ErrorCode::kTimeout) break;    // input drained
    last = incoming.status();
    if (receiver.poisoned()) break;
  }
  sender.close();
  return last;
}

// --- log segment -----------------------------------------------------------

// The durable log's read-back surface: segment scanning plus the advisory
// sidecar index. Input is a tiny container — [u32 LE segment_len |
// segment bytes | index bytes] — so mutations attack both files and, via
// the length prefix, their agreement with each other.
std::vector<std::uint8_t> pack_log_input(
    std::span<const std::uint8_t> segment,
    std::span<const std::uint8_t> index) {
  std::vector<std::uint8_t> out;
  const std::uint32_t seg_len = static_cast<std::uint32_t>(segment.size());
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<std::uint8_t>(seg_len >> shift));
  out.insert(out.end(), segment.begin(), segment.end());
  out.insert(out.end(), index.begin(), index.end());
  return out;
}

// A well-formed 3-frame segment plus its honest index, for seeding and
// for the canonical attacks to deface.
void build_log_seed(std::vector<std::uint8_t>* segment,
                    std::vector<std::uint8_t>* index,
                    std::vector<std::size_t>* frame_offsets) {
  ByteBuffer seg;
  storage::append_file_header(seg, storage::kSegmentMagic, 1);
  ByteBuffer idx;
  storage::append_file_header(idx, storage::kIndexMagic, 1);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    if (frame_offsets != nullptr) frame_offsets->push_back(seg.size());
    storage::append_index_entry(idx, {seq, seg.size()});
    std::vector<std::uint8_t> payload(6 + seq * 5);
    for (std::size_t i = 0; i < payload.size(); ++i)
      payload[i] = static_cast<std::uint8_t>(seq * 41 + i);
    storage::append_frame(seg, seq, seq % 2 + 1,
                          std::span<const std::uint8_t>(payload.data(),
                                                        payload.size()));
  }
  *segment = seg.take();
  if (index != nullptr) *index = idx.take();
}

std::vector<std::vector<std::uint8_t>> log_segment_seeds() {
  std::vector<std::uint8_t> segment, index;
  build_log_seed(&segment, &index, nullptr);
  return {
      pack_log_input(segment, index),
      pack_log_input(segment, {}),  // no sidecar: pure scan path
  };
}

Status run_log_segment(std::span<const std::uint8_t> input) {
  if (input.size() < 4) return Status::ok();
  std::size_t seg_len = 0;
  for (int i = 0; i < 4; ++i)
    seg_len |= std::size_t(input[i]) << (8 * i);
  seg_len = std::min(seg_len, input.size() - 4);
  auto segment = input.subspan(4, seg_len);
  auto index = input.subspan(4 + seg_len);

  DecodeLimits limits = fuzz_limits();
  std::size_t payload_bytes = 0;
  auto scan = storage::scan_segment(
      segment, limits,
      [&](std::uint64_t, std::uint64_t,
          std::span<const std::uint8_t> payload, std::size_t) {
        payload_bytes += payload.size();
        return payload_bytes < std::size_t(1) << 24;
      });
  const std::uint64_t base = scan.frames != 0 ? scan.first_seq : 1;
  auto entries = storage::parse_index(index, segment, base, limits);
  // parse_index vouches for every entry it returns: each must point at a
  // fully parseable frame carrying exactly the indexed sequence number.
  // A lie surviving here is the bug class this driver exists to catch.
  for (const auto& entry : entries) {
    auto frame = storage::parse_frame(segment, entry.offset, limits);
    if (!frame.is_ok() || frame.value().seq != entry.seq) std::abort();
  }
  if (!scan.error.is_ok()) return scan.error;
  if (scan.stop == storage::ScanStop::kTornTail)
    return Status(ErrorCode::kOutOfRange,
                  "segment ends in a torn tail at offset " +
                      std::to_string(scan.valid_bytes));
  const std::size_t declared =
      index.size() > storage::kSegmentHeaderBytes
          ? (index.size() - storage::kSegmentHeaderBytes) /
                storage::kIndexEntryBytes
          : 0;
  if (entries.size() < declared)
    return Status(ErrorCode::kMalformedInput,
                  "index declares " + std::to_string(declared) +
                      " entries but only " + std::to_string(entries.size()) +
                      " survived verification");
  return Status::ok();
}

constexpr Driver kDrivers[] = {
    {"xml", "xml::parse_document over mutated documents", xml_seeds, run_xml},
    {"xsd", "xsd::parse_schema_text over mutated schemas", xsd_seeds, run_xsd},
    {"pbio_record", "pbio::Decoder (decode, in-place, dynamic reader)",
     pbio_seeds, run_pbio},
    {"format_wire", "pbio::deserialize_format over mutated metadata",
     format_wire_seeds, run_format_wire},
    {"format_set",
     "toolkit::parse_format_set over mutated batched-discovery responses",
     format_set_seeds, run_format_set},
    {"giop", "rpc::parse_giop_message over mutated GIOP frames", giop_seeds,
     run_giop},
    {"xmlrpc", "rpc XML-RPC call/response parsing", xmlrpc_seeds, run_xmlrpc},
    {"session", "MessageSession::receive over mutated frame streams",
     session_seeds, run_session},
    {"session_handshake",
     "resumption control frames: handshake/ping/pong over a live session",
     session_handshake_seeds, run_session_handshake},
    {"session_credit",
     "flow-control frames: credit grants and shed notices over a "
     "flow-controlled session",
     session_credit_seeds, run_session_credit},
    {"log_segment",
     "durable-log segment scan + sidecar index over mutated images",
     log_segment_seeds, run_log_segment},
};

// --- canonical hostile corpus ----------------------------------------------

std::vector<std::uint8_t> patched(std::vector<std::uint8_t> bytes,
                                  std::size_t offset,
                                  std::initializer_list<std::uint8_t> value) {
  std::copy(value.begin(), value.end(), bytes.begin() + offset);
  return bytes;
}

// Hand-built format metadata: a chain of nested formats where level k is a
// [16]-array of level k-1, so the flattened field count multiplies to
// 16^depth. Serialized bottom-up exactly as serialize_format() would —
// except no honest sender could produce it, because Format::make rejects
// the flatten once the field budget blows.
void append_flatten_bomb_level(ByteBuffer& out, int level) {
  auto put_str = [&](std::string_view s) {
    out.append_u16(static_cast<std::uint16_t>(s.size()), ByteOrder::kLittle);
    out.append(s);
  };
  std::uint32_t struct_size = 4;
  for (int i = 0; i < level; ++i) struct_size *= 16;
  out.append_byte(1);  // metadata version
  out.append_byte(0);  // little-endian sender
  out.append_byte(8);  // pointer size
  out.append_byte(8);  // long size
  out.append_byte(8);  // max align
  put_str("B" + std::to_string(level));
  out.append_u32(struct_size, ByteOrder::kLittle);
  out.append_u16(1, ByteOrder::kLittle);
  if (level == 0) {
    put_str("x");
    put_str("integer");
    out.append_u32(4, ByteOrder::kLittle);
    out.append_u32(0, ByteOrder::kLittle);
    out.append_u16(0, ByteOrder::kLittle);
  } else {
    put_str("a");
    put_str("B" + std::to_string(level - 1) + "[16]");
    out.append_u32(struct_size / 16, ByteOrder::kLittle);
    out.append_u32(0, ByteOrder::kLittle);
    out.append_u16(1, ByteOrder::kLittle);
    append_flatten_bomb_level(out, level - 1);
  }
}

}  // namespace

std::vector<CorpusAttack> canonical_attacks() {
  std::vector<CorpusAttack> attacks;
  PbioState& state = pbio_state();
  const std::vector<std::uint8_t>& host_record = state.seeds[0];

  // 1. Dynamic-array count patched to INT32_MAX: count * elem_size used to
  //    be summed into the bounds check in 32 bits, wrapping past it and
  //    sending memcpy into wild memory. Offset 36 = header(32) + n(@4).
  attacks.push_back({"pbio_record-count-mul-overflow.bin",
                     "array count*size product overflow past bounds check",
                     patched(host_record, 36, {0xFF, 0xFF, 0xFF, 0x7F})});

  // 2. Pointer slot patched to ~0: offset-1 + payload wrapped the u64 sum
  //    so `at + payload > var_length` passed with at far out of range.
  //    Offset 40 = header(32) + data slot(@8), 8-byte little-endian slot.
  attacks.push_back(
      {"pbio_record-slot-offset-wrap.bin",
       "pointer slot of ~0 wraps offset+payload past the range check",
       patched(host_record, 40,
               {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})});

  // 3. Header flags bit1 cleared: the header claims a 4-byte-pointer
  //    sender while the registered format metadata says 8. Slot reads used
  //    the header's stride against the format's layout, running an 8-byte
  //    field's slot read past where 4-byte slots were laid out.
  attacks.push_back({"pbio_record-arch-contradiction.bin",
                     "header pointer-size flag contradicts format metadata",
                     patched(host_record, 5, {0x00})});

  // 4. Field count of an honest Point metadata blob patched to 65535:
  //    drove a 65535-slot reserve and a long doomed parse loop before the
  //    declared-count-vs-bytes-present check existed. Offset 16 =
  //    version(1) + arch(4) + name(2+5) + struct_size(4).
  attacks.push_back(
      {"format_wire-field-count-lie.bin",
       "declared field count far exceeds the bytes that follow",
       patched(format_wire_seeds()[1], 16, {0xFF, 0xFF})});

  // 5. Six nested [16]-array levels: 16^6 ≈ 16.7M flattened fields from a
  //    ~200-byte announcement — an amplification bomb that exhausted
  //    memory before flatten enforced a field budget.
  {
    ByteBuffer bomb;
    append_flatten_bomb_level(bomb, 6);
    attacks.push_back({"format_wire-flatten-bomb.bin",
                       "nested fixed arrays multiply to 16.7M flat fields",
                       bomb.take()});
  }

  // 6. Character reference 0x100000041 used to be truncated to u32 and
  //    accepted as 'A' — a wrong-accept that let distinct documents
  //    collide. Now rejected as out of Unicode range.
  attacks.push_back({"xml-charref-overflow.bin",
                     "character reference wraps u32 to a valid code point",
                     as_bytes("<a>&#x100000041;</a>")});

  // 7. 80 levels of nesting: recursion depth tracked nothing, so a small
  //    document could exhaust the stack. Bounded by max_depth (64 here).
  {
    std::string deep;
    for (int i = 0; i < 80; ++i) deep += "<d>";
    deep += "x";
    for (int i = 0; i < 80; ++i) deep += "</d>";
    attacks.push_back({"xml-depth-bomb.bin",
                       "80-deep element nesting exhausts bounded depth",
                       as_bytes(deep)});
  }

  // 8. maxOccurs just past UINT32_MAX was silently truncated u64→u32 to 1
  //    — a wrong-accept that changed the declared wire layout.
  attacks.push_back(
      {"xsd-maxoccurs-overflow.bin",
       "maxOccurs of 2^32+1 silently truncated to 1 before the bound",
       as_bytes("<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">"
                "<xsd:complexType name=\"Bomb\"><xsd:sequence>"
                "<xsd:element name=\"v\" type=\"xsd:int\" "
                "maxOccurs=\"4294967297\"/>"
                "</xsd:sequence></xsd:complexType></xsd:schema>")});

  // 9. Object-key octet count patched to 0x7FFFFFFF in an otherwise valid
  //    request: a length lie that drove an oversized allocation before the
  //    count was compared to the bytes actually present. Offset 24 =
  //    GIOP header(12) + contexts(4) + request_id(4) + bool(1) + pad(3).
  attacks.push_back({"giop-octet-length-lie.bin",
                     "octet-sequence count far exceeds message remainder",
                     patched(giop_seeds()[0], 24, {0xFF, 0xFF, 0xFF, 0x7F})});

  // 10. XML-RPC value nested 80 arrays deep: same stack-exhaustion class
  //     as the raw XML bomb, reached through the RPC entry point.
  {
    std::string call = "<?xml version=\"1.0\"?><methodCall>"
                       "<methodName>m</methodName><params><param>";
    for (int i = 0; i < 80; ++i) call += "<value><array><data>";
    call += "<value><int>1</int></value>";
    for (int i = 0; i < 80; ++i) call += "</data></array></value>";
    call += "</param></params></methodCall>";
    attacks.push_back({"xmlrpc-depth-bomb.bin",
                       "80-deep array nesting through the RPC parser",
                       as_bytes(call)});
  }

  // 11. Twelve garbage record frames in one stream: every frame fails to
  //     parse, and nothing used to bound the tolerance — a peer could
  //     spin a receiver on malformed frames forever. The malformed-frame
  //     budget (8 in the fuzz limits) now poisons the session.
  {
    std::vector<std::vector<std::uint8_t>> frames(
        12, std::vector<std::uint8_t>{0x02, 0xFF});
    attacks.push_back({"session-malformed-flood.bin",
                       "malformed-frame flood exceeds the session budget",
                       pack_frames(frames)});
  }

  // 26. A length prefix claiming 1 GiB, in a chunked stream: the plain
  //     receive path grew its frame buffer to the claimed size before the
  //     session compared it with its limit, so four hostile bytes cost a
  //     1 GiB allocation. The channel now checks the prefix against the
  //     limit before any buffer grows and refuses the frame.
  {
    std::vector<std::uint8_t> stream =
        wire_stream({announce_frame(*state.host_format)});
    const std::uint8_t hostile[] = {0x00, 0x00, 0x00, 0x40, 0x02, 0x01};
    stream.insert(stream.end(), std::begin(hostile), std::end(hostile));
    attacks.push_back({"session-oversized-length-prefix.bin",
                       "1 GiB length prefix grew a buffer before the limit "
                       "check",
                       std::move(stream)});
  }

  // 12. Epoch rollback: the driver's preamble establishes epoch 5; a
  //     replayed (or forged) initiate at epoch 3 must not rewind the
  //     session's delivery state — it is refused as kMalformedInput.
  attacks.push_back(
      {"session_handshake-epoch-rollback.bin",
       "replayed initiate handshake with a lower epoch",
       pack_frames({handshake_frame(0x01, kHandshakeSid, 3, 0)})});

  // 13. Foreign session id at a higher epoch: a handshake that names a
  //     different session must not be spliced into this one.
  attacks.push_back(
      {"session_handshake-foreign-session.bin",
       "handshake names a different session id on a live transport",
       pack_frames({handshake_frame(0x01, kHandshakeSid + 1, 6, 0)})});

  // 14. Absurd ack: last-seq-received of ~0 acknowledges records that were
  //     never sent; absorbing it would trim the whole replay buffer and
  //     fake delivery. Rejected before any state changes.
  attacks.push_back({"session_handshake-absurd-ack.bin",
                     "handshake acks 2^64-1 records that were never sent",
                     pack_frames({handshake_frame(0x01, kHandshakeSid, 6,
                                                  ~std::uint64_t(0))})});

  // 15. Truncated handshake: 3 payload bytes where the fixed 21 are
  //     required — the length check must run before any field loads.
  attacks.push_back(
      {"session_handshake-short-frame.bin",
       "handshake frame truncated mid-session-id",
       pack_frames({std::vector<std::uint8_t>{0x03, 0x01, 0x5E}})});

  // 19. Zero-credit flood: twelve grants of window 0. An honest receiver
  //     pauses a sender by *withholding* grants; granting zero is a
  //     wedge-forever attack, so each one draws down the malformed budget
  //     (8 here) until the session is poisoned.
  {
    std::vector<std::vector<std::uint8_t>> frames(12, credit_frame(0, 0, 0));
    attacks.push_back({"session_credit-zero-grant-flood.bin",
                       "zero-window credit grants flood past the budget",
                       pack_frames(frames)});
  }

  // 20. Credit reach wrap: ack near 2^64 plus a 2^40 window wraps the
  //     cumulative transmit allowance to a tiny value. The checked add
  //     must reject it before any credit state moves.
  attacks.push_back(
      {"session_credit-credit-wrap.bin",
       "ack + window wraps u64 into a rolled-back allowance",
       pack_frames({credit_frame(~std::uint64_t(0) - 100,
                                 std::uint64_t(1) << 40, 1u << 16)})});

  // 21. Shed-range rollback: a notice for [1, 9] advances the dedup
  //     window, then a second notice claims [3, 4] — inside the range
  //     already delivered-or-shed. Accepting it would rewind dedup and
  //     re-deliver duplicates as fresh records.
  attacks.push_back({"session_credit-shed-rollback.bin",
                     "second shed notice rewinds over an already-shed range",
                     pack_frames({shed_frame(1, 9), shed_frame(3, 4)})});

  // 22. Absurd grant: a 2^63-record window is not a plausible drain
  //     budget on any hardware — it is an attack on the credit
  //     arithmetic's headroom, rejected by the 2^48 ceiling.
  attacks.push_back(
      {"session_credit-absurd-grant.bin",
       "credit window of 2^63 records exceeds any plausible budget",
       pack_frames({credit_frame(0, std::uint64_t(1) << 63, 1u << 16)})});

  {
    const std::vector<std::uint8_t> honest = format_set_seeds()[0];

    // 23. Set cut mid-entry: the first entry's header survives but its
    //     payload does not. The parser must report which entry the set
    //     died at, never read past the end.
    attacks.push_back({"format_set-truncated-set.bin",
                       "set document truncated inside an entry payload",
                       std::vector<std::uint8_t>(honest.begin(),
                                                 honest.begin() + 40)});

    // 24. Two entries carrying the same name: a server answering a batch
    //     request must name each format once; a duplicate would let the
    //     second entry silently shadow the first after adoption.
    std::vector<toolkit::SetEntry> duplicated(
        2, {toolkit::SetEntryKind::kFormatBlob, "00000000deadbeef",
            format_wire_seeds()[1]});
    attacks.push_back({"format_set-duplicate-ids.bin",
                       "set names the same format id in two entries",
                       toolkit::build_format_set(duplicated)});

    // 25. Count field patched to 4000 over a 2-entry body: the 9-byte
    //     per-entry floor must reject the lie before any per-entry
    //     allocation, not loop 4000 times discovering it.
    attacks.push_back({"format_set-lying-count.bin",
                       "declared entry count far exceeds the bytes present",
                       patched(honest, 8, {0xA0, 0x0F, 0x00, 0x00})});
  }

  {
    std::vector<std::uint8_t> segment, index;
    std::vector<std::size_t> offsets;
    build_log_seed(&segment, &index, &offsets);

    // 16. First frame's payload_len patched to 0x7FFFFFFF: a length lie
    //     that must be bounded against the budget and the bytes present
    //     before anything is allocated — and since payload_len is inside
    //     the CRC, even a liar who also fixes the checksum cannot make
    //     the frame both huge and valid.
    attacks.push_back(
        {"log_segment-length-lie.bin",
         "frame payload length claims 2 GiB against a 100-byte segment",
         pack_log_input(patched(segment, offsets[0] + 4,
                                {0xFF, 0xFF, 0xFF, 0x7F}),
                        index)});

    // 17. Segment cut mid-payload of the last frame: the canonical crash
    //     artifact. The scan must classify it as a torn tail after the
    //     two whole frames, never surface the partial record.
    std::vector<std::uint8_t> torn(segment.begin(),
                                   segment.begin() + (offsets[2] +
                                                      storage::kFrameHeaderBytes +
                                                      3));
    attacks.push_back({"log_segment-torn-tail.bin",
                       "segment truncated mid-payload of its final frame",
                       pack_log_input(torn, index)});

    // 18. Index entry whose CRC is self-consistent but whose seq lies
    //     about the frame it points at: entry verification against the
    //     pointed-at frame (not just the entry checksum) must reject it,
    //     or a seek would alias record 99 onto record 2's bytes.
    ByteBuffer lying;
    storage::append_file_header(lying, storage::kIndexMagic, 1);
    storage::append_index_entry(lying, {1, offsets[0]});
    storage::append_index_entry(lying, {99, offsets[1]});
    attacks.push_back({"log_segment-index-mismatch.bin",
                       "well-formed index entry names the wrong sequence",
                       pack_log_input(segment, lying.take())});
  }

  return attacks;
}

std::span<const Driver> all_drivers() { return kDrivers; }

const Driver* find_driver(std::string_view name) {
  for (const Driver& driver : kDrivers)
    if (name == driver.name) return &driver;
  return nullptr;
}

}  // namespace xmit::fuzz
