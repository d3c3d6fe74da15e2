// MessageSession tests: self-describing connections — formats travel
// in-band exactly once, receivers need no schema, evolution re-announces.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <thread>

#include "common/arena.hpp"
#include "pbio/format_wire.hpp"
#include "session/session.hpp"

namespace xmit::session {
namespace {

struct Reading {
  std::int32_t id;
  std::int32_t n;
  float* series;
  char* site;
};

pbio::FormatPtr reading_format(pbio::FormatRegistry& registry) {
  return registry
      .register_format(
          "Reading",
          {{"id", "integer", 4, offsetof(Reading, id)},
           {"n", "integer", 4, offsetof(Reading, n)},
           {"series", "float[n]", 4, offsetof(Reading, series)},
           {"site", "string", sizeof(char*), offsetof(Reading, site)}},
          sizeof(Reading))
      .value();
}

TEST(Session, ReceiverNeedsNoPriorMetadata) {
  pbio::FormatRegistry sender_registry, receiver_registry;
  auto pair = make_session_pipe(sender_registry, receiver_registry).value();

  auto format = reading_format(sender_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series = {1.5f, 2.5f};
  char site[] = "upstream";
  Reading in{4, 2, series.data(), site};
  ASSERT_TRUE(pair.a.send(encoder, &in).is_ok());

  EXPECT_EQ(receiver_registry.size(), 0u);  // nothing until receive()
  auto incoming = pair.b.receive().value();
  EXPECT_EQ(incoming.sender_format->name(), "Reading");
  EXPECT_EQ(receiver_registry.size(), 1u);  // adopted in-band

  // Decode with the announced metadata (identity layout).
  pbio::Decoder decoder(receiver_registry);
  Arena arena;
  Reading out{};
  ASSERT_TRUE(
      decoder.decode(incoming.bytes, *incoming.sender_format, &out, arena)
          .is_ok());
  EXPECT_EQ(out.id, 4);
  EXPECT_STREQ(out.site, "upstream");
  EXPECT_EQ(out.series[1], 2.5f);
}

TEST(Session, FormatAnnouncedExactlyOnce) {
  pbio::FormatRegistry sender_registry, receiver_registry;
  auto pair = make_session_pipe(sender_registry, receiver_registry).value();
  auto format = reading_format(sender_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series = {1};
  Reading in{1, 1, series.data(), nullptr};
  for (int i = 0; i < 20; ++i) {
    in.id = i;
    ASSERT_TRUE(pair.a.send(encoder, &in).is_ok());
  }
  EXPECT_EQ(pair.a.announcements_sent(), 1u);
  EXPECT_EQ(pair.a.records_sent(), 20u);
  for (int i = 0; i < 20; ++i) {
    auto incoming = pair.b.receive().value();
    EXPECT_EQ(incoming.sender_format->id(), format->id());
  }
  EXPECT_EQ(pair.b.announcements_received(), 1u);
}

TEST(Session, EvolvedFormatTriggersReannouncement) {
  pbio::FormatRegistry sender_registry, receiver_registry;
  auto pair = make_session_pipe(sender_registry, receiver_registry).value();

  struct V1 {
    std::int32_t a;
  };
  struct V2 {
    std::int32_t a;
    double b;
  };
  auto v1 = sender_registry
                .register_format("Msg", {{"a", "integer", 4, 0}}, sizeof(V1))
                .value();
  auto v1_encoder = pbio::Encoder::make(v1).value();
  V1 first{1};
  ASSERT_TRUE(pair.a.send(v1_encoder, &first).is_ok());

  auto v2 = sender_registry
                .register_format(
                    "Msg",
                    {{"a", "integer", 4, offsetof(V2, a)},
                     {"b", "float", 8, offsetof(V2, b)}},
                    sizeof(V2))
                .value();
  auto v2_encoder = pbio::Encoder::make(v2).value();
  V2 second{2, 0.5};
  ASSERT_TRUE(pair.a.send(v2_encoder, &second).is_ok());
  EXPECT_EQ(pair.a.announcements_sent(), 2u);  // structure modified

  auto one = pair.b.receive().value();
  auto two = pair.b.receive().value();
  EXPECT_EQ(one.sender_format->id(), v1->id());
  EXPECT_EQ(two.sender_format->id(), v2->id());
  EXPECT_EQ(receiver_registry.size(), 2u);  // both versions known
}

TEST(Session, NestedFormatsTravelWithTheOuter) {
  pbio::FormatRegistry sender_registry, receiver_registry;
  auto pair = make_session_pipe(sender_registry, receiver_registry).value();

  struct Point {
    float x, y;
  };
  struct Line {
    Point a, b;
  };
  ASSERT_TRUE(sender_registry
                  .register_format("Point",
                                   {{"x", "float", 4, offsetof(Point, x)},
                                    {"y", "float", 4, offsetof(Point, y)}},
                                   sizeof(Point))
                  .is_ok());
  auto line = sender_registry
                  .register_format("Line",
                                   {{"a", "Point", sizeof(Point), offsetof(Line, a)},
                                    {"b", "Point", sizeof(Point), offsetof(Line, b)}},
                                   sizeof(Line))
                  .value();
  auto encoder = pbio::Encoder::make(line).value();
  Line in{{1, 2}, {3, 4}};
  ASSERT_TRUE(pair.a.send(encoder, &in).is_ok());

  auto incoming = pair.b.receive().value();
  pbio::Decoder decoder(receiver_registry);
  Arena arena;
  Line out{};
  ASSERT_TRUE(
      decoder.decode(incoming.bytes, *incoming.sender_format, &out, arena)
          .is_ok());
  EXPECT_EQ(out.b.y, 4.0f);
}

TEST(Session, PreAnnounceLetsReceiverBindEarly) {
  pbio::FormatRegistry sender_registry, receiver_registry;
  auto pair = make_session_pipe(sender_registry, receiver_registry).value();
  auto format = reading_format(sender_registry);
  ASSERT_TRUE(pair.a.announce(*format).is_ok());
  // Push one record so receive() has a data frame to stop at.
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series = {1};
  Reading in{1, 1, series.data(), nullptr};
  ASSERT_TRUE(pair.a.send(encoder, &in).is_ok());
  EXPECT_EQ(pair.a.announcements_sent(), 1u);  // announce() + send() = once

  auto incoming = pair.b.receive().value();
  EXPECT_TRUE(receiver_registry.by_name("Reading").is_ok());
  EXPECT_EQ(incoming.sender_format->name(), "Reading");
}

TEST(Session, CleanCloseSurfacesAsNotFound) {
  pbio::FormatRegistry a_registry, b_registry;
  auto pair = make_session_pipe(a_registry, b_registry).value();
  pair.a.close();
  auto incoming = pair.b.receive(200);
  EXPECT_FALSE(incoming.is_ok());
  EXPECT_EQ(incoming.code(), ErrorCode::kNotFound);
}

TEST(Session, GarbageFrameIsRejected) {
  pbio::FormatRegistry a_registry, b_registry;
  auto [raw_a, raw_b] = net::Channel::pipe().value();
  MessageSession receiver(std::move(raw_b), b_registry);
  std::vector<std::uint8_t> junk = {0x77, 1, 2, 3};
  ASSERT_TRUE(raw_a.send(junk).is_ok());
  auto incoming = receiver.receive(200);
  EXPECT_FALSE(incoming.is_ok());
  EXPECT_EQ(incoming.code(), ErrorCode::kParseError);
}

TEST(Session, HostileRecordQuarantinesFormatUntilReannounce) {
  // Drive the receiver over a raw channel so the test controls every
  // frame, including the re-announcement a real sender would skip.
  pbio::FormatRegistry a_registry, b_registry;
  auto [raw_a, raw_b] = net::Channel::pipe().value();
  MessageSession receiver(std::move(raw_b), b_registry);

  auto format = reading_format(a_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series = {1.0f};
  char site[] = "x";
  Reading in{1, 1, series.data(), site};
  std::vector<std::uint8_t> record = encoder.encode_to_vector(&in).value();

  auto send_frame = [&raw_a](std::uint8_t tag,
                             std::span<const std::uint8_t> body) {
    std::vector<std::uint8_t> frame;
    frame.push_back(tag);
    frame.insert(frame.end(), body.begin(), body.end());
    return raw_a.send(frame);
  };
  // Data frames carry a u64 LE sequence number between tag and record.
  auto send_record = [&raw_a](std::uint64_t seq,
                              std::span<const std::uint8_t> body) {
    std::vector<std::uint8_t> frame;
    frame.push_back(0x02);
    for (int shift = 0; shift < 64; shift += 8)
      frame.push_back(static_cast<std::uint8_t>(seq >> shift));
    frame.insert(frame.end(), body.begin(), body.end());
    return raw_a.send(frame);
  };
  auto announce = pbio::serialize_format(*format);

  ASSERT_TRUE(send_frame(0x01, announce).is_ok());
  ASSERT_TRUE(send_record(1, record).is_ok());
  ASSERT_TRUE(receiver.receive(200).is_ok());

  // A record whose header contradicts the announced architecture
  // (4-byte-pointer flag cleared) — affirmatively hostile, not truncated.
  auto hostile = record;
  hostile[5] &= ~std::uint8_t(0x02);
  ASSERT_TRUE(send_record(2, hostile).is_ok());
  auto hostile_read = receiver.receive(200);
  ASSERT_FALSE(hostile_read.is_ok());
  EXPECT_EQ(hostile_read.code(), ErrorCode::kMalformedInput);
  EXPECT_TRUE(receiver.is_quarantined(format->id()));

  // An intact record under the quarantined id is refused fail-fast.
  ASSERT_TRUE(send_record(3, record).is_ok());
  auto refused = receiver.receive(200);
  ASSERT_FALSE(refused.is_ok());
  EXPECT_NE(refused.status().message().find("quarantined"), std::string::npos)
      << refused.status().message();

  // A fresh, well-formed announcement vouches for the format again.
  ASSERT_TRUE(send_frame(0x01, announce).is_ok());
  ASSERT_TRUE(send_record(4, record).is_ok());
  auto healed = receiver.receive(200);
  ASSERT_TRUE(healed.is_ok()) << healed.status().to_string();
  EXPECT_FALSE(receiver.is_quarantined(format->id()));
}

TEST(Session, TruncatedRecordDoesNotQuarantine) {
  pbio::FormatRegistry a_registry, b_registry;
  auto pair = make_session_pipe(a_registry, b_registry).value();

  auto format = reading_format(a_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series = {1.0f};
  char site[] = "x";
  Reading in{1, 1, series.data(), site};
  std::vector<std::uint8_t> record = encoder.encode_to_vector(&in).value();

  ASSERT_TRUE(pair.a.send(encoder, &in).is_ok());
  ASSERT_TRUE(pair.b.receive().is_ok());

  // A peer dying mid-write is not an attack: the short record errors but
  // the format stays trusted and the next intact record decodes.
  std::vector<std::uint8_t> truncated(record.begin(),
                                      record.begin() + record.size() / 2);
  ASSERT_TRUE(pair.a.send_encoded(*format, truncated).is_ok());
  auto failed = pair.b.receive(200);
  ASSERT_FALSE(failed.is_ok());
  EXPECT_FALSE(pair.b.is_quarantined(format->id()));

  ASSERT_TRUE(pair.a.send_encoded(*format, record).is_ok());
  EXPECT_TRUE(pair.b.receive(200).is_ok());
}

TEST(Session, MalformedFrameFloodPoisonsSession) {
  pbio::FormatRegistry a_registry, b_registry;
  auto [raw_a, raw_b] = net::Channel::pipe().value();
  MessageSession receiver(std::move(raw_b), b_registry);
  DecodeLimits limits;
  limits.max_malformed_frames = 3;
  receiver.set_limits(limits);

  std::vector<std::uint8_t> junk = {0x02, 0xFF};  // record tag, garbage body
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(raw_a.send(junk).is_ok());

  for (int i = 0; i < 3; ++i) {
    auto failed = receiver.receive(200);
    ASSERT_FALSE(failed.is_ok());
    EXPECT_FALSE(receiver.poisoned());
  }
  auto over_budget = receiver.receive(200);
  ASSERT_FALSE(over_budget.is_ok());
  EXPECT_EQ(over_budget.code(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(receiver.poisoned());

  // Once poisoned, even a well-formed frame is refused fail-fast.
  auto format = reading_format(a_registry);
  ByteBuffer frame;
  frame.append_byte(0x01);
  pbio::serialize_format(*format, frame);
  ASSERT_TRUE(raw_a.send(frame.span()).is_ok());
  auto refused = receiver.receive(200);
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.code(), ErrorCode::kResourceExhausted);
}

TEST(Session, OversizedFrameIsRejected) {
  pbio::FormatRegistry a_registry, b_registry;
  auto [raw_a, raw_b] = net::Channel::pipe().value();
  MessageSession receiver(std::move(raw_b), b_registry);
  DecodeLimits limits;
  limits.max_message_bytes = 64;
  receiver.set_limits(limits);

  std::vector<std::uint8_t> big(65, 0x02);
  ASSERT_TRUE(raw_a.send(big).is_ok());
  auto failed = receiver.receive(200);
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.code(), ErrorCode::kResourceExhausted);
}

// Frames a sending session put on the wire, read back off a tap.
std::vector<std::vector<std::uint8_t>> tap_frames(net::Channel& tap,
                                                  std::size_t count) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t i = 0; i < count; ++i)
    frames.push_back(tap.receive(500).value());
  return frames;
}

std::vector<std::uint8_t> wire_image(const std::vector<std::uint8_t>& frame) {
  std::vector<std::uint8_t> wire(4 + frame.size());
  const auto n = static_cast<std::uint32_t>(frame.size());
  for (int i = 0; i < 4; ++i) wire[i] = static_cast<std::uint8_t>(n >> (8 * i));
  std::copy(frame.begin(), frame.end(), wire.begin() + 4);
  return wire;
}

// Regression: a plain receive_view whose timeout expired mid-frame dropped
// the partial frame, and the next read failed with "frame length is
// implausible". The channel now keeps the partial bytes.
TEST(Session, ReceiveTimeoutMidFrameKeepsFraming) {
  pbio::FormatRegistry a_registry, b_registry;
  auto [sender_end, tap] = net::Channel::pipe().value();
  MessageSession sender(std::move(sender_end), a_registry);
  auto [raw, receiver_end] = net::Channel::pipe().value();
  MessageSession receiver(std::move(receiver_end), b_registry);

  auto encoder = pbio::Encoder::make(reading_format(a_registry)).value();
  std::vector<float> series = {1.5f, 2.5f, 3.5f};
  char site[] = "midstream";
  Reading in{77, 3, series.data(), site};
  ASSERT_TRUE(sender.send(encoder, &in).is_ok());
  const auto frames = tap_frames(tap, 2);  // announcement, record

  ASSERT_TRUE(raw.send(frames[0]).is_ok());
  const auto wire = wire_image(frames[1]);
  const std::span<const std::uint8_t> bytes(wire);
  ASSERT_TRUE(raw.send_raw(bytes.first(wire.size() / 2)).is_ok());
  auto early = receiver.receive_view(20);
  ASSERT_FALSE(early.is_ok());
  EXPECT_EQ(early.code(), ErrorCode::kTimeout);

  ASSERT_TRUE(raw.send_raw(bytes.subspan(wire.size() / 2)).is_ok());
  auto view = receiver.receive_view(500);
  ASSERT_TRUE(view.is_ok()) << view.status().to_string();
  pbio::Decoder decoder(b_registry);
  Arena arena;
  Reading out{};
  ASSERT_TRUE(decoder
                  .decode(view.value().bytes, *view.value().sender_format,
                          &out, arena)
                  .is_ok());
  EXPECT_EQ(out.id, 77);
  EXPECT_EQ(out.series[2], 3.5f);
  EXPECT_STREQ(out.site, "midstream");
  EXPECT_EQ(receiver.malformed_frames(), 0u);
}

// A hostile length prefix is checked against the session's limit before
// any buffer grows, counted as malformed, and the session keeps working.
TEST(Session, OversizedLengthPrefixRefusedBeforeAllocation) {
  pbio::FormatRegistry a_registry, b_registry;
  auto [raw, receiver_end] = net::Channel::pipe().value();
  MessageSession receiver(std::move(receiver_end), b_registry);

  const std::uint8_t one_gib[] = {0x00, 0x00, 0x00, 0x40};
  ASSERT_TRUE(raw.send_raw(one_gib).is_ok());
  auto refused = receiver.receive_view(200);
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(receiver.malformed_frames(), 1u);
  EXPECT_LT(receiver.channel().bytes_received(), 4096u);
}

TEST(Session, BidirectionalTraffic) {
  pbio::FormatRegistry a_registry, b_registry;
  auto pair = make_session_pipe(a_registry, b_registry).value();

  auto a_format = reading_format(a_registry);
  auto a_encoder = pbio::Encoder::make(a_format).value();
  struct Ack {
    std::int32_t id;
  };
  auto b_format =
      b_registry.register_format("Ack", {{"id", "integer", 4, 0}}, sizeof(Ack))
          .value();
  auto b_encoder = pbio::Encoder::make(b_format).value();

  std::thread responder([&] {
    pbio::Decoder decoder(b_registry);
    Arena arena;
    for (int i = 0; i < 5; ++i) {
      auto incoming = pair.b.receive();
      if (!incoming.is_ok()) return;
      Reading reading{};
      arena.reset();
      if (!decoder
               .decode(incoming.value().bytes, *incoming.value().sender_format,
                       &reading, arena)
               .is_ok())
        return;
      Ack ack{reading.id};
      if (!pair.b.send(b_encoder, &ack).is_ok()) return;
    }
  });

  pbio::Decoder decoder(a_registry);
  Arena arena;
  std::vector<float> series = {0.5f};
  for (int i = 0; i < 5; ++i) {
    Reading reading{i, 1, series.data(), nullptr};
    ASSERT_TRUE(pair.a.send(a_encoder, &reading).is_ok());
    auto ack_frame = pair.a.receive().value();
    EXPECT_EQ(ack_frame.sender_format->name(), "Ack");
    Ack ack{};
    arena.reset();
    ASSERT_TRUE(decoder
                    .decode(ack_frame.bytes, *ack_frame.sender_format, &ack,
                            arena)
                    .is_ok());
    EXPECT_EQ(ack.id, i);
  }
  responder.join();
}

// A flow-controlled reader that stops reading mid-burst (its read budget
// runs out inside a frame) fills the socket under the sender's batched
// flush, which parks the frame it cut at its cursor. Once the reader
// drains, every record arrives, in order and intact.
TEST(Session, FlowControlledReaderStallsMidBurstThenDrains) {
  pbio::FormatRegistry a_registry, b_registry;
  SessionOptions options;
  options.flow_control = true;
  auto pair = make_session_pipe(a_registry, b_registry, options).value();
  auto format = reading_format(a_registry);
  auto encoder = pbio::Encoder::make(format).value();
  constexpr int kRecords = 64;
  constexpr std::int32_t kSeries = 4096;  // ~16 KiB per record
  ASSERT_EQ(pair.b.receive_view(0).code(), ErrorCode::kTimeout);  // credit
  pair.b.channel().stall_reads_after(100000);  // inside the 7th record

  std::thread sender([&] {
    std::vector<float> series(kSeries);
    char site[] = "stall";
    for (int i = 0; i < kRecords; ++i) {
      std::fill(series.begin(), series.end(), static_cast<float>(i));
      Reading reading{i, kSeries, series.data(), site};
      if (!pair.a.send(encoder, &reading).is_ok()) return;
    }
    // Only the sender's own calls pump its queue.
    for (int spins = 0; spins < 2000 && pair.a.send_queue_depth() > 0; ++spins)
      (void)pair.a.receive_view(5);
  });

  pbio::Decoder decoder(b_registry);
  Arena arena;
  std::vector<int> got;
  const auto take = [&](MessageSession::IncomingView incoming) {
    Reading out{};
    arena.rewind();
    ASSERT_TRUE(decoder
                    .decode(incoming.bytes, *incoming.sender_format, &out,
                            arena)
                    .is_ok());
    ASSERT_EQ(out.n, kSeries);
    EXPECT_EQ(out.series[0], static_cast<float>(out.id));
    EXPECT_EQ(out.series[kSeries - 1], static_cast<float>(out.id));
    got.push_back(out.id);
  };
  for (;;) {
    auto incoming = pair.b.receive_view(2000);
    if (!incoming.is_ok()) {
      EXPECT_EQ(incoming.code(), ErrorCode::kResourceExhausted)
          << incoming.status().to_string();
      break;
    }
    take(incoming.value());
  }
  EXPECT_LT(got.size(), static_cast<std::size_t>(kRecords));
  // Let the sender run into the full socket, then read on.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pair.b.channel().stall_reads_after(static_cast<std::size_t>(-1));
  while (got.size() < static_cast<std::size_t>(kRecords)) {
    auto incoming = pair.b.receive_view(2000);
    ASSERT_TRUE(incoming.is_ok()) << incoming.status().to_string();
    take(incoming.value());
  }
  sender.join();
  for (int i = 0; i < kRecords; ++i)
    EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(pair.a.send_queue_depth(), 0u);
}

// ---- resumption-layer semantics over hand-built frames -----------------

namespace {

// Raw-frame helpers mirroring the session wire protocol v2.
Status send_raw_record(net::Channel& channel, std::uint64_t seq,
                       std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> frame;
  frame.push_back(0x02);
  for (int shift = 0; shift < 64; shift += 8)
    frame.push_back(static_cast<std::uint8_t>(seq >> shift));
  frame.insert(frame.end(), body.begin(), body.end());
  return channel.send(frame);
}

Status send_raw_handshake(net::Channel& channel, std::uint8_t flags,
                          std::uint64_t sid, std::uint32_t epoch,
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
  return channel.send(frame);
}

}  // namespace

TEST(Session, RecordsReceivedCounterTracksDeliveries) {
  pbio::FormatRegistry a_registry, b_registry;
  auto pair = make_session_pipe(a_registry, b_registry).value();
  auto format = reading_format(a_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series = {1};
  Reading in{1, 1, series.data(), nullptr};
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(pair.a.send(encoder, &in).is_ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(pair.b.receive().is_ok());
  EXPECT_EQ(pair.b.records_received(), 3u);
  EXPECT_EQ(pair.b.duplicates_discarded(), 0u);
  EXPECT_EQ(pair.b.reconnects(), 0u);
  EXPECT_EQ(pair.a.replayed_records(), 0u);
}

TEST(Session, DuplicateRecordsAreDiscarded) {
  pbio::FormatRegistry a_registry, b_registry;
  auto [raw_a, raw_b] = net::Channel::pipe().value();
  MessageSession receiver(std::move(raw_b), b_registry);

  auto format = reading_format(a_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series = {1.0f};
  Reading in{1, 1, series.data(), nullptr};
  auto record = encoder.encode_to_vector(&in).value();
  ByteBuffer announce;
  announce.append_byte(0x01);
  pbio::serialize_format(*format, announce);
  ASSERT_TRUE(raw_a.send(announce.span()).is_ok());

  // An at-least-once sender replays: seq 1 twice, then seq 2.
  ASSERT_TRUE(send_raw_record(raw_a, 1, record).is_ok());
  ASSERT_TRUE(send_raw_record(raw_a, 1, record).is_ok());
  ASSERT_TRUE(send_raw_record(raw_a, 2, record).is_ok());

  ASSERT_TRUE(receiver.receive(500).is_ok());
  auto second = receiver.receive(500);  // skips the duplicate silently
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_EQ(receiver.records_received(), 2u);
  EXPECT_EQ(receiver.duplicates_discarded(), 1u);
}

TEST(Session, SequenceGapSurfacesDataLossOnce) {
  pbio::FormatRegistry a_registry, b_registry;
  auto [raw_a, raw_b] = net::Channel::pipe().value();
  MessageSession receiver(std::move(raw_b), b_registry);

  auto format = reading_format(a_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series = {1.0f};
  Reading in{1, 1, series.data(), nullptr};
  auto record = encoder.encode_to_vector(&in).value();
  ByteBuffer announce;
  announce.append_byte(0x01);
  pbio::serialize_format(*format, announce);
  ASSERT_TRUE(raw_a.send(announce.span()).is_ok());

  ASSERT_TRUE(send_raw_record(raw_a, 1, record).is_ok());
  ASSERT_TRUE(send_raw_record(raw_a, 4, record).is_ok());  // 2 and 3 gone
  ASSERT_TRUE(send_raw_record(raw_a, 5, record).is_ok());

  ASSERT_TRUE(receiver.receive(500).is_ok());
  auto gap = receiver.receive(500);
  ASSERT_FALSE(gap.is_ok());
  EXPECT_EQ(gap.code(), ErrorCode::kDataLoss);
  // Reported once; the stream then continues in order.
  auto after = receiver.receive(500);
  ASSERT_TRUE(after.is_ok()) << after.status().to_string();
  EXPECT_EQ(receiver.records_received(), 2u);
}

TEST(Session, HandshakeEpochRollbackIsRejected) {
  pbio::FormatRegistry a_registry, b_registry;
  auto [raw_a, raw_b] = net::Channel::pipe().value();
  MessageSession receiver(std::move(raw_b), b_registry);

  const std::uint64_t sid = 0xABCDEF01;
  ASSERT_TRUE(send_raw_handshake(raw_a, 0x01, sid, 2, 0).is_ok());
  ASSERT_TRUE(send_raw_handshake(raw_a, 0x01, sid, 1, 0).is_ok());
  auto rollback = receiver.receive(500);  // first handshake consumed quietly
  ASSERT_FALSE(rollback.is_ok());
  EXPECT_EQ(rollback.code(), ErrorCode::kMalformedInput);
  EXPECT_NE(rollback.status().message().find("rollback"), std::string::npos)
      << rollback.status().message();
  // The rollback must not have disturbed adopted identity.
  EXPECT_EQ(receiver.session_id(), sid);
  EXPECT_EQ(receiver.epoch(), 2u);
}

TEST(Session, HandshakeForeignSessionAndAbsurdAckRejected) {
  pbio::FormatRegistry a_registry, b_registry;
  auto [raw_a, raw_b] = net::Channel::pipe().value();
  MessageSession receiver(std::move(raw_b), b_registry);

  ASSERT_TRUE(send_raw_handshake(raw_a, 0x01, 7, 1, 0).is_ok());
  // Acks a record the receiver never sent.
  ASSERT_TRUE(send_raw_handshake(raw_a, 0x01, 7, 2, 50).is_ok());
  auto absurd = receiver.receive(500);
  ASSERT_FALSE(absurd.is_ok());
  EXPECT_EQ(absurd.code(), ErrorCode::kMalformedInput);

  // A different session id on the same transport is refused.
  ASSERT_TRUE(send_raw_handshake(raw_a, 0x01, 8, 3, 0).is_ok());
  auto foreign = receiver.receive(500);
  ASSERT_FALSE(foreign.is_ok());
  EXPECT_EQ(foreign.code(), ErrorCode::kMalformedInput);
  EXPECT_NE(foreign.status().message().find("foreign"), std::string::npos)
      << foreign.status().message();

  // Zero session ids never identify a session.
  ASSERT_TRUE(send_raw_handshake(raw_a, 0x01, 0, 4, 0).is_ok());
  auto zero = receiver.receive(500);
  ASSERT_FALSE(zero.is_ok());
  EXPECT_EQ(zero.code(), ErrorCode::kMalformedInput);
}

TEST(Session, TcpPairRoundTripsRecords) {
  pbio::FormatRegistry a_registry, b_registry;
  auto tcp = make_session_tcp(a_registry, b_registry).value();
  auto format = reading_format(a_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series = {2.5f};
  char site[] = "tcp";
  Reading in{9, 1, series.data(), site};
  ASSERT_TRUE(tcp.a.send(encoder, &in).is_ok());
  auto incoming = tcp.b.receive(2000);
  ASSERT_TRUE(incoming.is_ok()) << incoming.status().to_string();
  EXPECT_EQ(incoming.value().sender_format->name(), "Reading");
  EXPECT_EQ(tcp.b.session_id(), tcp.a.session_id());
  EXPECT_EQ(tcp.b.epoch(), 1u);
  tcp.a.close();
  tcp.b.close();
}

// receive_batch: one call drains everything the transport already holds
// and decodes it across the worker pool; what it does not take stays
// queued for the next receive.
TEST(Session, ReceiveBatchDrainsAndDecodesInOrder) {
  pbio::FormatRegistry sender_registry, receiver_registry;
  SessionOptions options;
  options.batch_decode_workers = 4;
  auto pair =
      make_session_pipe(sender_registry, receiver_registry, options).value();

  auto format = reading_format(sender_registry);
  auto encoder = pbio::Encoder::make(format).value();
  const int kRecords = 7;
  for (int i = 0; i < kRecords; ++i) {
    std::vector<float> series = {0.5f * i, 0.5f * i + 0.25f};
    char site[] = "batch";
    Reading in{i, 2, series.data(), site};
    ASSERT_TRUE(pair.a.send(encoder, &in).is_ok());
  }

  // The receiver decodes against its own registration of the layout.
  auto receiver = reading_format(receiver_registry);
  const std::size_t stride = sizeof(Reading);
  alignas(std::max_align_t) Reading out[kRecords] = {};

  // First call takes fewer than available: the rest must stay queued.
  auto took =
      pair.b.receive_batch(*receiver, out, stride, /*max_records=*/4, 2000);
  ASSERT_TRUE(took.is_ok()) << took.status().to_string();
  EXPECT_EQ(took.value(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i].id, i);
    ASSERT_EQ(out[i].n, 2);
    EXPECT_EQ(out[i].series[1], 0.5f * i + 0.25f);
    EXPECT_STREQ(out[i].site, "batch");
  }

  // Second call drains the remaining three (max_records larger than what
  // is left) without waiting for more.
  auto rest =
      pair.b.receive_batch(*receiver, out, stride, /*max_records=*/16, 2000);
  ASSERT_TRUE(rest.is_ok()) << rest.status().to_string();
  EXPECT_EQ(rest.value(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(out[i].id, i + 4);

  // Nothing queued and nothing arriving: the first-record wait times out.
  auto empty = pair.b.receive_batch(*receiver, out, stride, 4, 50);
  ASSERT_FALSE(empty.is_ok());
  EXPECT_EQ(empty.status().code(), ErrorCode::kTimeout);
}

// ---- the send side's wire image ------------------------------------------

enum class SendMode { kPlain, kResumable, kFlowControlled };

std::string send_mode_name(const ::testing::TestParamInfo<SendMode>& info) {
  switch (info.param) {
    case SendMode::kPlain:
      return "Plain";
    case SendMode::kResumable:
      return "Resumable";
    case SendMode::kFlowControlled:
      return "FlowControlled";
  }
  return "Unknown";
}

class SessionWireImage : public ::testing::TestWithParam<SendMode> {};

// Pins the exact frames a sender puts on the wire, whatever its mode: one
// 0x01 announcement per format (an evolved format re-announced ahead of
// its first record), then 0x02 frames with sequence numbers 1..N whose
// bodies are the encoder's bytes. The tap end reads raw frames; the
// flow-controlled sender is granted credit up front and never receives,
// so no control frame of its own joins the stream.
TEST_P(SessionWireImage, AnnouncementsThenSequencedEncoderBytes) {
  struct V1 {
    std::int32_t a;
  };
  struct V2 {
    std::int32_t a;
    double b;
  };
  pbio::FormatRegistry registry;
  auto v1 = registry.register_format("Msg", {{"a", "integer", 4, 0}},
                                     sizeof(V1))
                .value();
  auto v2 = registry
                .register_format("Msg",
                                 {{"a", "integer", 4, offsetof(V2, a)},
                                  {"b", "float", 8, offsetof(V2, b)}},
                                 sizeof(V2))
                .value();
  ASSERT_NE(v1->id(), v2->id());
  auto v1_encoder = pbio::Encoder::make(v1).value();
  auto v2_encoder = pbio::Encoder::make(v2).value();

  SessionOptions options;
  options.heartbeat_interval_ms = 60000;
  options.liveness_deadline_ms = 60000;
  options.resumable = GetParam() == SendMode::kResumable;
  options.flow_control = GetParam() == SendMode::kFlowControlled;
  auto [sender_end, tap] = net::Channel::pipe().value();
  MessageSession sender(std::move(sender_end), registry, options);
  if (options.flow_control) {
    // 0x08 [ack 0 | 1000 records | 1 MiB]
    std::vector<std::uint8_t> grant = {0x08};
    for (const std::uint64_t field : {std::uint64_t{0}, std::uint64_t{1000},
                                      std::uint64_t{1} << 20})
      for (int shift = 0; shift < 64; shift += 8)
        grant.push_back(static_cast<std::uint8_t>(field >> shift));
    ASSERT_TRUE(tap.send(grant).is_ok());
  }

  // The script: three V1 records, two V2, one more V1 (no re-announce),
  // and a V2 record sent pre-encoded.
  std::vector<std::vector<std::uint8_t>> bodies;
  for (std::int32_t i = 1; i <= 3; ++i) {
    V1 record{i};
    ASSERT_TRUE(sender.send(v1_encoder, &record).is_ok());
    bodies.push_back(v1_encoder.encode_to_vector(&record).value());
  }
  for (std::int32_t i = 4; i <= 5; ++i) {
    V2 record{i, i * 0.5};
    ASSERT_TRUE(sender.send(v2_encoder, &record).is_ok());
    bodies.push_back(v2_encoder.encode_to_vector(&record).value());
  }
  V1 again{6};
  ASSERT_TRUE(sender.send(v1_encoder, &again).is_ok());
  bodies.push_back(v1_encoder.encode_to_vector(&again).value());
  V2 pre{7, 3.5};
  bodies.push_back(v2_encoder.encode_to_vector(&pre).value());
  ASSERT_TRUE(sender.send_encoded(*v2, bodies.back()).is_ok());

  const auto announcement = [](const pbio::Format& format) {
    std::vector<std::uint8_t> frame = {0x01};
    const auto wire = pbio::serialize_format(format);
    frame.insert(frame.end(), wire.begin(), wire.end());
    return frame;
  };
  const auto record_frame = [&](std::uint64_t seq) {
    std::vector<std::uint8_t> frame = {0x02};
    for (int shift = 0; shift < 64; shift += 8)
      frame.push_back(static_cast<std::uint8_t>(seq >> shift));
    const auto& body = bodies[seq - 1];
    frame.insert(frame.end(), body.begin(), body.end());
    return frame;
  };
  const std::vector<std::vector<std::uint8_t>> expected = {
      announcement(*v1), record_frame(1), record_frame(2), record_frame(3),
      announcement(*v2), record_frame(4), record_frame(5), record_frame(6),
      record_frame(7)};
  const auto frames = tap_frames(tap, expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(frames[i], expected[i]) << "frame " << i;
  EXPECT_EQ(tap.receive(50).status().code(), ErrorCode::kTimeout)
      << "the sender wrote more than the script";
  EXPECT_EQ(sender.announcements_sent(), 2u);
  EXPECT_EQ(sender.records_sent(), 7u);
  EXPECT_EQ(sender.send_queue_depth(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllModes, SessionWireImage,
                         ::testing::Values(SendMode::kPlain,
                                           SendMode::kResumable,
                                           SendMode::kFlowControlled),
                         send_mode_name);

// Without flow control, send() returns only once the whole frame is in the
// kernel, even when the socket takes it in many pieces: a 4 MiB record
// over a socketpair whose reader starts late. The plain session writes
// it from the encoder's slices; the resumable one from its ring slot.
class SessionBlockingSend : public ::testing::TestWithParam<bool> {};

TEST_P(SessionBlockingSend, LargeRecordReturnsOnlyOnceWritten) {
  pbio::FormatRegistry a_registry, b_registry;
  SessionOptions options;
  options.resumable = GetParam();
  options.heartbeat_interval_ms = 60000;
  options.liveness_deadline_ms = 60000;
  auto pair = make_session_pipe(a_registry, b_registry, options).value();
  auto format = reading_format(a_registry);
  auto encoder = pbio::Encoder::make(format).value();

  constexpr std::size_t kSiteBytes = 4u << 20;
  std::string site(kSiteBytes, '\0');
  for (std::size_t i = 0; i < kSiteBytes; ++i)
    site[i] = static_cast<char>('a' + i % 26);
  std::vector<float> series = {0.25f, 0.75f};
  Reading in{42, 2, series.data(), site.data()};
  const std::size_t record_bytes = encoder.encoded_size(&in).value();

  std::atomic<bool> reading{false};
  MessageSession::Incoming got;
  Status received;
  std::thread reader([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    reading.store(true);
    auto incoming = pair.b.receive(5000);  // the announcement is absorbed
    if (incoming.is_ok())
      got = std::move(incoming).value();
    else
      received = incoming.status();
  });

  // The announcement is small; measure the record's frame alone.
  ASSERT_TRUE(pair.a.announce(*format).is_ok());
  const std::size_t before = pair.a.channel().bytes_sent();
  const Status sent = pair.a.send(encoder, &in);
  const bool reader_had_started = reading.load();
  const std::size_t written = pair.a.channel().bytes_sent() - before;
  reader.join();

  ASSERT_TRUE(sent.is_ok()) << sent.to_string();
  EXPECT_TRUE(reader_had_started)
      << "send() returned before the socket could have taken the frame";
  EXPECT_EQ(written, 4 + 1 + 8 + record_bytes);  // [len | tag | seq | record]
  EXPECT_EQ(pair.a.send_queue_depth(), 0u);
  ASSERT_TRUE(received.is_ok()) << received.to_string();

  pbio::Decoder decoder(b_registry);
  Arena arena;
  Reading out{};
  ASSERT_TRUE(
      decoder.decode(got.bytes, *got.sender_format, &out, arena).is_ok());
  EXPECT_EQ(out.id, 42);
  ASSERT_EQ(out.n, 2);
  EXPECT_EQ(out.series[1], 0.75f);
  ASSERT_NE(out.site, nullptr);
  EXPECT_EQ(std::string_view(out.site), site);
}

INSTANTIATE_TEST_SUITE_P(Resumable, SessionBlockingSend,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "On" : "Off";
                         });

// ---- resume and replay on the wire ----------------------------------------

// A scratch durable directory, removed with everything in it.
class ScratchDir {
 public:
  ScratchDir() {
    char tmpl[] = "/tmp/xmit_session_XXXXXX";
    path_ = ::mkdtemp(tmpl) != nullptr ? tmpl : "";
  }
  ~ScratchDir() {
    if (!path_.empty()) std::filesystem::remove_all(path_);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// A raw frame: one tag byte, then each field as a u64 LE.
std::vector<std::uint8_t> u64_frame(std::uint8_t tag,
                                    std::initializer_list<std::uint64_t> fields) {
  std::vector<std::uint8_t> frame = {tag};
  for (const std::uint64_t field : fields)
    for (int shift = 0; shift < 64; shift += 8)
      frame.push_back(static_cast<std::uint8_t>(field >> shift));
  return frame;
}

// 0x03 [flags | u64 session id | u32 epoch | u64 last-seq-received]
std::vector<std::uint8_t> handshake_frame(bool initiate, std::uint64_t sid,
                                          std::uint32_t epoch,
                                          std::uint64_t last) {
  std::vector<std::uint8_t> frame = {0x03,
                                     static_cast<std::uint8_t>(initiate)};
  for (int shift = 0; shift < 64; shift += 8)
    frame.push_back(static_cast<std::uint8_t>(sid >> shift));
  for (int shift = 0; shift < 32; shift += 8)
    frame.push_back(static_cast<std::uint8_t>(epoch >> shift));
  for (int shift = 0; shift < 64; shift += 8)
    frame.push_back(static_cast<std::uint8_t>(last >> shift));
  return frame;
}

// Every frame the tap holds until it stays quiet for `quiet_ms`, minus
// pings, pongs and credit grants, whose timing varies from run to run.
std::vector<std::vector<std::uint8_t>> tap_stream(net::Channel& tap,
                                                  int quiet_ms = 100) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (;;) {
    auto frame = tap.receive(quiet_ms);
    if (!frame.is_ok()) break;
    const std::uint8_t tag = frame.value().empty() ? 0 : frame.value()[0];
    if (tag == 0x04 || tag == 0x05 || tag == 0x08) continue;
    frames.push_back(std::move(frame).value());
  }
  return frames;
}

// Two formats and the exact frames a sender puts on the wire for them.
struct WireScript {
  pbio::FormatRegistry registry;
  pbio::FormatPtr a = registry.register_format("A", {{"a", "integer", 4, 0}},
                                               sizeof(std::int32_t))
                          .value();
  pbio::FormatPtr b =
      registry.register_format("B", {{"b", "float", 8, 0}}, sizeof(double))
          .value();
  pbio::Encoder a_encoder = pbio::Encoder::make(a).value();
  pbio::Encoder b_encoder = pbio::Encoder::make(b).value();
  std::vector<std::vector<std::uint8_t>> bodies;  // bodies[seq - 1]

  // Sends record `seq` in format A or B (value derived from seq).
  Status send(MessageSession& sender, bool use_b) {
    const std::uint64_t seq = bodies.size() + 1;
    if (use_b) {
      const double value = static_cast<double>(seq) * 0.5;
      bodies.push_back(b_encoder.encode_to_vector(&value).value());
      return sender.send(b_encoder, &value);
    }
    const auto value = static_cast<std::int32_t>(seq);
    bodies.push_back(a_encoder.encode_to_vector(&value).value());
    return sender.send(a_encoder, &value);
  }
  static std::vector<std::uint8_t> announcement(const pbio::Format& format) {
    std::vector<std::uint8_t> frame = {0x01};
    const auto wire = pbio::serialize_format(format);
    frame.insert(frame.end(), wire.begin(), wire.end());
    return frame;
  }
  std::vector<std::uint8_t> record(std::uint64_t seq) const {
    std::vector<std::uint8_t> frame = u64_frame(0x02, {seq});
    frame.insert(frame.end(), bodies[seq - 1].begin(), bodies[seq - 1].end());
    return frame;
  }
};

void expect_frames(const std::vector<std::vector<std::uint8_t>>& got,
                   const std::vector<std::vector<std::uint8_t>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << "frame " << i << " (tag "
                               << static_cast<int>(got[i].empty() ? 0 : got[i][0])
                               << ")";
}

// A passive durable sender resumes for a peer that acked seq 2. Its ring
// holds only seqs 7..10 (replay_buffer_records = 4); 3..6 live only in
// the log. The resume must put on the wire: the 0x03 reply, the 0x06
// advert of the log's range, then seqs 3..10 in order, with format B
// (first sent at seq 4, past the ack) re-announced just ahead of seq 4.
// Format A was announced at seq 1, which the ack covers: no re-announce.
TEST(SessionReplayWireImage, ResumeRepliesAdvertisesThenReplaysInOrder) {
  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  WireScript script;
  constexpr std::uint64_t kSid = 0x5E55;
  SessionOptions options;
  options.heartbeat_interval_ms = 60000;
  options.liveness_deadline_ms = 60000;
  options.session_id = kSid;
  options.replay_buffer_records = 4;
  options.durable_dir = dir.path();
  options.durable_fsync = storage::FsyncPolicy::kNone;
  auto [first_end, first_tap] = net::Channel::pipe().value();
  MessageSession sender(std::move(first_end), script.registry, options);
  ASSERT_TRUE(sender.durable_status().is_ok());
  for (const bool use_b : {false, false, false, true, true, true, false, true,
                           false, true})
    ASSERT_TRUE(script.send(sender, use_b).is_ok());
  EXPECT_EQ(sender.evicted_records(), 0u) << "the log covers every eviction";

  // The first transport dies; the peer dials again and resumes.
  first_tap.close();
  auto [second_end, tap] = net::Channel::pipe().value();
  sender.attach(std::move(second_end));
  ASSERT_TRUE(tap.send(handshake_frame(true, kSid, 1, 2)).is_ok());
  EXPECT_EQ(sender.receive_view(50).status().code(), ErrorCode::kTimeout);
  // A send after the resume follows the replay, unannounced again.
  ASSERT_TRUE(script.send(sender, true).is_ok());

  std::vector<std::vector<std::uint8_t>> want = {
      handshake_frame(false, kSid, 1, 0), u64_frame(0x06, {1, 10}),
      script.record(3), WireScript::announcement(*script.b)};
  for (std::uint64_t seq = 4; seq <= 11; ++seq)
    want.push_back(script.record(seq));
  expect_frames(tap_stream(tap), want);
}

// A 0x07 replay request from seq 1 to a durable flow-controlled sender
// whose peer has acked seq 3: records 1..3 come back from the log, 4..6
// from memory, each format announced again just ahead of its first
// record, since the requester may never have seen it.
TEST(SessionReplayWireImage, ReplayRequestReannouncesAheadOfEachFormat) {
  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  WireScript script;
  SessionOptions options;
  options.heartbeat_interval_ms = 60000;
  options.liveness_deadline_ms = 60000;
  options.flow_control = true;
  options.durable_dir = dir.path();
  options.durable_fsync = storage::FsyncPolicy::kNone;
  auto [sender_end, tap] = net::Channel::pipe().value();
  MessageSession sender(std::move(sender_end), script.registry, options);
  ASSERT_TRUE(sender.durable_status().is_ok());
  ASSERT_TRUE(tap.send(u64_frame(0x08, {0, 1000, 1u << 20})).is_ok());
  for (const bool use_b : {false, false, true, true, false, true})
    ASSERT_TRUE(script.send(sender, use_b).is_ok());
  expect_frames(tap_stream(tap),
                {WireScript::announcement(*script.a), script.record(1),
                 script.record(2), WireScript::announcement(*script.b),
                 script.record(3), script.record(4), script.record(5),
                 script.record(6)});

  ASSERT_TRUE(tap.send(u64_frame(0x08, {3, 1000, 1u << 20})).is_ok());
  ASSERT_TRUE(tap.send(u64_frame(0x07, {1})).is_ok());
  EXPECT_EQ(sender.receive_view(50).status().code(), ErrorCode::kTimeout);
  expect_frames(tap_stream(tap),
                {WireScript::announcement(*script.a), script.record(1),
                 script.record(2), WireScript::announcement(*script.b),
                 script.record(3), script.record(4), script.record(5),
                 script.record(6)});
}

// A replay request larger than the requester's credit window is paced by
// that credit: the receive call that reads the request returns on its own
// deadline instead of writing the whole log, the first grant's 128
// records go out and nothing more, and later grants bring the rest, each
// record exactly once and in order.
TEST(SessionReplayWireImage, ReplayRequestPastTheCreditWindowIsPaced) {
  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  constexpr std::uint64_t kRecords = 10000;
  constexpr std::uint64_t kFirstWindow = 128;
  SessionOptions options;
  options.flow_control = true;
  options.durable_dir = dir.path();
  options.durable_fsync = storage::FsyncPolicy::kNone;
  std::vector<float> series(24, 0.25f);
  std::string site = "gauge-station";
  {
    // Fill the log: a spilling sender whose peer never grants credit.
    pbio::FormatRegistry registry;
    auto format = reading_format(registry);
    auto encoder = pbio::Encoder::make(format).value();
    SessionOptions filler = options;
    filler.slow_consumer = SlowConsumerPolicy::kSpillToLog;
    auto [end, silent] = net::Channel::pipe().value();
    MessageSession sender(std::move(end), registry, filler);
    for (std::uint64_t i = 1; i <= kRecords; ++i) {
      Reading record{static_cast<std::int32_t>(i), 24, series.data(),
                     site.data()};
      ASSERT_TRUE(sender.send(encoder, &record).is_ok()) << i;
    }
    ASSERT_EQ(sender.durable_last_seq(), kRecords);
  }

  // The sender restarts from its directory; a raw requester asks for all
  // of it with one 128-record grant.
  pbio::FormatRegistry registry;
  auto [end, raw] = net::Channel::pipe().value();
  MessageSession sender(std::move(end), registry, options);
  ASSERT_EQ(sender.durable_last_seq(), kRecords);
  ASSERT_TRUE(raw.send(u64_frame(0x07, {1})).is_ok());
  ASSERT_TRUE(raw.send(u64_frame(0x08, {0, kFirstWindow, 1u << 30})).is_ok());
  Stopwatch took;
  EXPECT_EQ(sender.receive_view(50).status().code(), ErrorCode::kTimeout);
  EXPECT_LT(took.elapsed_ms(), options.heartbeat_interval_ms)
      << "the receive call that read the request wrote past the credit";

  std::uint64_t next = 1;
  std::size_t announcements = 0;
  const auto absorb = [&](const std::vector<std::vector<std::uint8_t>>& got) {
    for (const auto& frame : got) {
      ASSERT_FALSE(frame.empty());
      if (frame[0] == 0x01) {
        EXPECT_EQ(next, 1u) << "announcement after the first record";
        ++announcements;
        continue;
      }
      ASSERT_EQ(frame[0], 0x02);
      ASSERT_GE(frame.size(), 9u);
      std::uint64_t seq = 0;
      for (int i = 0; i < 8; ++i)
        seq |= static_cast<std::uint64_t>(frame[1 + i]) << (8 * i);
      ASSERT_EQ(seq, next) << "out of order or repeated";
      ++next;
    }
  };
  absorb(tap_stream(raw, 50));
  EXPECT_EQ(announcements, 1u);
  EXPECT_EQ(next, kFirstWindow + 1) << "the first grant's records, no more";

  // Further grants bring the rest.
  for (int round = 0; round < 200 && next <= kRecords; ++round) {
    ASSERT_TRUE(raw.send(u64_frame(0x08, {next - 1, 512, 1u << 30})).is_ok());
    (void)sender.receive_view(5);
    absorb(tap_stream(raw, 20));
  }
  EXPECT_EQ(next, kRecords + 1);
  EXPECT_EQ(announcements, 1u);
}

// ---- the credit edge -------------------------------------------------------

class SessionCreditEdge : public ::testing::TestWithParam<bool> {};

// One thread drives both ends of a flow-controlled pair through a window
// of only 4 records, so every other record rides on fresh credit: first
// round trips with a reply, then one-way records, where the sender reads
// credit only inside its own sends. A send that returned with its frame
// parked behind a grant still unread in its socket would leave the next
// receive waiting out its whole timeout; every receive here must return
// its record, and the run stay well clear of the 200 ms receive timeouts.
TEST_P(SessionCreditEdge, SingleThreadedRoundTripsNeverWaitOnUnreadCredit) {
  const bool durable = GetParam();
  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  SessionOptions options;
  options.flow_control = true;
  options.receive_window_records = 4;
  SessionOptions sender_options = options;
  if (durable) {
    sender_options.durable_dir = dir.path();
    sender_options.durable_fsync = storage::FsyncPolicy::kNone;
  }
  pbio::FormatRegistry registry_a, registry_b;
  auto [end_a, end_b] = net::Channel::pipe().value();
  MessageSession a(std::move(end_a), registry_a, sender_options);
  MessageSession b(std::move(end_b), registry_b, options);
  ASSERT_TRUE(a.durable_status().is_ok());
  auto encoder = pbio::Encoder::make(reading_format(registry_a)).value();
  auto reply_encoder = pbio::Encoder::make(reading_format(registry_b)).value();
  // A fresh end grants its first credit on its first receive.
  for (MessageSession* end : {&b, &a})
    ASSERT_EQ(end->receive_view(0).code(), ErrorCode::kTimeout);

  constexpr int kRoundTrips = 2000;
  float sample = 0.5f;
  Stopwatch took;
  for (int i = 0; i < kRoundTrips; ++i) {
    Reading record{i, 1, &sample, nullptr};
    ASSERT_TRUE(a.send(encoder, &record).is_ok()) << i;
    auto got = b.receive_view(200);
    ASSERT_TRUE(got.is_ok()) << "round trip " << i << ": "
                             << got.status().to_string();
    ASSERT_TRUE(b.send(reply_encoder, &record).is_ok()) << i;
    auto back = a.receive_view(200);
    ASSERT_TRUE(back.is_ok()) << "round trip " << i << ": "
                              << back.status().to_string();
  }
  for (int i = 0; i < kRoundTrips; ++i) {
    Reading record{kRoundTrips + i, 1, &sample, nullptr};
    ASSERT_TRUE(a.send(encoder, &record).is_ok()) << i;
    auto got = b.receive_view(200);
    ASSERT_TRUE(got.is_ok()) << "one-way record " << i << ": "
                             << got.status().to_string();
  }
  EXPECT_LT(took.elapsed_ms(), 2000.0);
  EXPECT_EQ(b.records_received(), static_cast<std::size_t>(2 * kRoundTrips));
  EXPECT_EQ(a.records_received(), static_cast<std::size_t>(kRoundTrips));
  if (durable) {
    EXPECT_EQ(a.durable_last_seq(),
              static_cast<std::uint64_t>(2 * kRoundTrips));
  }
}

INSTANTIATE_TEST_SUITE_P(Transport, SessionCreditEdge, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param
                                                  ? "DurableFlowControlled"
                                                  : "FlowControlled");
                         });

// ---- the inbound path ------------------------------------------------------

// Flow control with heartbeat and liveness timers far past a test's length,
// so a send reads inbound only when its record would wait on credit.
SessionOptions quiet_flow_control() {
  SessionOptions options;
  options.flow_control = true;
  options.heartbeat_interval_ms = 60000;
  options.liveness_deadline_ms = 60000;
  return options;
}

// The id of a delivered Reading record.
std::int32_t reading_id(pbio::FormatRegistry& registry,
                        const MessageSession::IncomingView& view) {
  pbio::Decoder decoder(registry);
  Arena arena;
  Reading out{};
  EXPECT_TRUE(
      decoder.decode(view.bytes, *view.sender_format, &out, arena).is_ok());
  return out.id;
}

// `a` spends its credit; `b` sends 3 records and then drains `a`'s, so
// the grants it sends land in `a`'s socket behind that data. `a`'s next
// send has to read past the data to reach them, and the data must still
// arrive afterwards, in order.
TEST(SessionInbound, SendReachesAGrantBehindThePeersData) {
  SessionOptions options = quiet_flow_control();
  options.receive_window_records = 4;
  pbio::FormatRegistry registry_a, registry_b;
  auto pair = make_session_pipe(registry_a, registry_b, options).value();
  MessageSession& a = pair.a;
  MessageSession& b = pair.b;
  auto encoder = pbio::Encoder::make(reading_format(registry_a)).value();
  auto reply_encoder = pbio::Encoder::make(reading_format(registry_b)).value();
  for (MessageSession* end : {&a, &b})
    ASSERT_EQ(end->receive_view(0).code(), ErrorCode::kTimeout);

  float sample = 0.5f;
  for (int i = 0; i < 4; ++i) {
    Reading record{i, 1, &sample, nullptr};
    ASSERT_TRUE(a.send(encoder, &record).is_ok()) << i;
  }
  ASSERT_EQ(a.credit_records_available(), 0u);
  for (int i = 0; i < 3; ++i) {
    Reading record{100 + i, 1, &sample, nullptr};
    ASSERT_TRUE(b.send(reply_encoder, &record).is_ok()) << i;
  }
  for (int i = 0; i < 4; ++i) {
    auto got = b.receive_view(200);
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_EQ(reading_id(registry_b, got.value()), i);
  }
  ASSERT_EQ(a.credit_grants_received(), 1u) << "the new grants are unread";

  Reading fifth{4, 1, &sample, nullptr};
  ASSERT_TRUE(a.send(encoder, &fifth).is_ok());
  EXPECT_GT(a.credit_grants_received(), 1u);
  auto got = b.receive_view(200);
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(reading_id(registry_b, got.value()), 4);
  for (int i = 0; i < 3; ++i) {
    auto back = a.receive_view(200);
    ASSERT_TRUE(back.is_ok()) << back.status().to_string();
    EXPECT_EQ(reading_id(registry_a, back.value()), 100 + i);
  }
}

// A non-resumable flow-controlled peer sends records and closes. Our send,
// short of credit, reads them and the close off the socket; receive_view
// must still deliver every record, in order, before it reports the close.
TEST(SessionInbound, RecordsAheadOfAPeersCloseAreStillDelivered) {
  pbio::FormatRegistry registry_a, registry_b;
  auto pair =
      make_session_pipe(registry_a, registry_b, quiet_flow_control()).value();
  MessageSession& a = pair.a;
  MessageSession& b = pair.b;
  auto encoder = pbio::Encoder::make(reading_format(registry_a)).value();
  auto reply_format = reading_format(registry_b);
  auto reply_encoder = pbio::Encoder::make(reply_format).value();
  // `b` grants `a` credit; `a` grants `b` none, so `b`'s send must read.
  ASSERT_EQ(b.receive_view(0).code(), ErrorCode::kTimeout);
  ASSERT_TRUE(b.announce(*reply_format).is_ok());

  constexpr int kRecords = 5;
  float sample = 0.5f;
  for (int i = 0; i < kRecords; ++i) {
    Reading record{i, 1, &sample, nullptr};
    ASSERT_TRUE(a.send(encoder, &record).is_ok()) << i;
  }
  a.close();
  Reading reply{0, 1, &sample, nullptr};
  ASSERT_TRUE(b.send(reply_encoder, &reply).is_ok());
  EXPECT_EQ(b.channel().bytes_received(), a.channel().bytes_sent())
      << "the send read everything the peer sent";

  for (int i = 0; i < kRecords; ++i) {
    auto got = b.receive_view(200);
    ASSERT_TRUE(got.is_ok()) << i << ": " << got.status().to_string();
    EXPECT_EQ(reading_id(registry_b, got.value()), i);
  }
  auto closed = b.receive_view(200);
  ASSERT_FALSE(closed.is_ok());
  EXPECT_TRUE(closed.code() == ErrorCode::kNotFound ||
              closed.code() == ErrorCode::kIoError)
      << closed.status().to_string();
}

// A raw peer floods records far past any credit while our end sends. A
// send short of credit reads its socket for a grant, but holds no more
// than an honest peer could have ahead of one: our receive window and one
// frame. The rest waits in the socket, and every record still arrives, in
// order, once receive_view drains them.
TEST(SessionInbound, FloodPastCreditStaysUnderTheSweepBound) {
  SessionOptions options = quiet_flow_control();
  options.receive_window_bytes = 4096;
  DecodeLimits limits;
  limits.max_message_bytes = 4096;
  const std::size_t bound =
      options.receive_window_bytes + limits.max_message_bytes;
  auto [raw, end] = net::Channel::pipe().value();
  pbio::FormatRegistry registry;
  MessageSession session(std::move(end), registry, options);
  session.set_limits(limits);

  WireScript peer;
  constexpr std::int32_t kFlood = 1500;
  std::vector<std::uint8_t> flood = wire_image(WireScript::announcement(*peer.a));
  for (std::int32_t i = 1; i <= kFlood; ++i) {
    peer.bodies.push_back(peer.a_encoder.encode_to_vector(&i).value());
    const auto frame = wire_image(peer.record(static_cast<std::uint64_t>(i)));
    flood.insert(flood.end(), frame.begin(), frame.end());
  }
  ASSERT_GT(flood.size(), 4 * bound);
  ASSERT_TRUE(raw.send_raw(flood).is_ok());

  auto encoder = pbio::Encoder::make(reading_format(registry)).value();
  float sample = 0.5f;
  for (int i = 0; i < 3; ++i) {
    Reading record{i, 1, &sample, nullptr};
    ASSERT_TRUE(session.send(encoder, &record).is_ok()) << i;
    EXPECT_GT(session.channel().bytes_received(), 0u) << "the send read";
    EXPECT_LE(session.channel().bytes_received(), bound);
  }

  pbio::Decoder decoder(registry);
  Arena arena;
  for (std::int32_t i = 1; i <= kFlood; ++i) {
    auto got = session.receive_view(200);
    ASSERT_TRUE(got.is_ok()) << i << ": " << got.status().to_string();
    std::int32_t value = 0;
    arena.rewind();
    ASSERT_TRUE(decoder
                    .decode(got.value().bytes, *got.value().sender_format,
                            &value, arena)
                    .is_ok());
    ASSERT_EQ(value, i);
  }
  EXPECT_EQ(session.malformed_frames(), 0u);
}

}  // namespace
}  // namespace xmit::session
