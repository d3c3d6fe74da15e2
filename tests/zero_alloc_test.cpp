// Steady-state allocation tests: after warm-up, a MessageSession
// round-trip (encode -> gather send -> framed receive -> compiled decode)
// of a record touches the heap zero times. Global operator new/delete are
// replaced with the counting shims of alloc_counter.hpp.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.hpp"
#include "common/arena.hpp"
#include "pbio/encode.hpp"
#include "pbio/registry.hpp"
#include "session/session.hpp"
#include "storage/log.hpp"

namespace xmit {
namespace {

using pbio::Encoder;
using pbio::FormatRegistry;
using pbio::IOField;
using session::MessageSession;
using session::make_session_pipe;

// Flat (contiguous) record: the acceptance-criterion case.
struct Flat {
  std::int32_t a;
  float b;
  std::int32_t c;
  std::int32_t d;
};

std::vector<IOField> flat_fields() {
  return {
      {"a", "integer", 4, offsetof(Flat, a)},
      {"b", "float", 4, offsetof(Flat, b)},
      {"c", "integer", 4, offsetof(Flat, c)},
      {"d", "integer", 4, offsetof(Flat, d)},
  };
}

TEST(ZeroAlloc, FlatRecordRoundTripAllocatesNothingAfterWarmup) {
  FormatRegistry reg_a;
  FormatRegistry reg_b;
  auto pair = make_session_pipe(reg_a, reg_b).value();
  auto format_a =
      reg_a.register_format("Flat", flat_fields(), sizeof(Flat)).value();
  auto receiver =
      reg_b.register_format("Flat", flat_fields(), sizeof(Flat)).value();
  auto encoder = Encoder::make(format_a).value();

  Arena arena;
  pbio::Decoder decoder(reg_b);
  Flat record{1, 2.5f, 3, 4};
  Flat out{};

  auto round_trip = [&]() -> bool {
    record.a += 1;
    if (!pair.a.send(encoder, &record).is_ok()) return false;
    auto incoming = pair.b.receive_view(1000);
    if (!incoming.is_ok()) return false;
    arena.rewind();
    if (!decoder
             .decode(incoming.value().bytes, *receiver, &out, arena)
             .is_ok())
      return false;
    return out.a == record.a && out.b == record.b && out.d == record.d;
  };

  // Warm-up: announcement, frame buffers, plan cache, slice capacity.
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(round_trip()) << "warmup " << i;

  g_allocations.store(0);
  g_counting.store(true);
  bool all_ok = true;
  for (int i = 0; i < 100; ++i) all_ok = round_trip() && all_ok;
  g_counting.store(false);

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "steady-state flat round-trip touched the heap";
}

// Read-ahead: a burst of records lands in the channel's read buffer in one
// recv and is cut from it frame by frame — still no heap traffic.
TEST(ZeroAlloc, PlainSessionBurstAllocatesNothingAfterWarmup) {
  FormatRegistry reg_a;
  FormatRegistry reg_b;
  auto pair = make_session_pipe(reg_a, reg_b).value();
  auto format_a =
      reg_a.register_format("Flat", flat_fields(), sizeof(Flat)).value();
  auto receiver =
      reg_b.register_format("Flat", flat_fields(), sizeof(Flat)).value();
  auto encoder = Encoder::make(format_a).value();
  Arena arena;
  pbio::Decoder decoder(reg_b);
  Flat record{0, 0.5f, 0, 0};

  auto burst = [&]() -> bool {
    const std::int32_t first = record.a + 1;
    for (int i = 0; i < 8; ++i) {
      record.a += 1;
      if (!pair.a.send(encoder, &record).is_ok()) return false;
    }
    for (std::int32_t want = first; want <= record.a; ++want) {
      auto incoming = pair.b.receive_view(1000);
      if (!incoming.is_ok()) return false;
      Flat out{};
      arena.rewind();
      if (!decoder.decode(incoming.value().bytes, *receiver, &out, arena)
               .is_ok() ||
          out.a != want)
        return false;
    }
    return true;
  };

  for (int i = 0; i < 10; ++i) ASSERT_TRUE(burst()) << "warmup " << i;

  g_allocations.store(0);
  g_counting.store(true);
  bool all_ok = true;
  for (int i = 0; i < 50; ++i) all_ok = burst() && all_ok;
  g_counting.store(false);

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(g_allocations.load(), 0u) << "steady-state burst touched the heap";
}

// Sends `count` records from `pair.a`, each received by `pair.b`, and
// returns how many heap allocations the send() calls alone made.
std::uint64_t count_send_allocs(session::SessionPair& pair,
                                const Encoder& encoder, Flat& record,
                                int count) {
  std::uint64_t send_allocs = 0;
  for (int i = 0; i < count; ++i) {
    record.a += 1;
    g_allocations.store(0);
    g_counting.store(true);
    const bool sent = pair.a.send(encoder, &record).is_ok();
    g_counting.store(false);
    send_allocs += g_allocations.load();
    EXPECT_TRUE(sent);
    EXPECT_TRUE(pair.b.receive_view(1000).is_ok());
  }
  return send_allocs;
}

// Warm-up for a flow-controlled pair: seed credit both ways, announce,
// and move enough records that every slot of the sender's ring has held
// one (the ring and its slot buffers are then at their working size).
void warm_flow_controlled(session::SessionPair& pair, const Encoder& encoder,
                          Flat& record) {
  for (MessageSession* end : {&pair.b, &pair.a})
    ASSERT_EQ(end->receive_view(0).code(), ErrorCode::kTimeout);
  (void)count_send_allocs(pair, encoder, record, 300);
  (void)pair.a.receive_view(0);  // absorb the grants sent so far
}

// A flow-controlled session pulls inbound frames on every receive and on
// every send (acks and credit ride back unannounced). When nothing is
// waiting, that pull must not touch the heap: no buffer to fill, and no
// message for the would-block outcome. A send copies its record once, into
// a recycled ring slot, so once warm it allocates nothing either.
TEST(ZeroAlloc, FlowControlledIdlePullAllocatesNothing) {
  FormatRegistry reg_a;
  FormatRegistry reg_b;
  session::SessionOptions options;
  options.flow_control = true;
  auto pair = make_session_pipe(reg_a, reg_b, options).value();
  auto format_a =
      reg_a.register_format("Flat", flat_fields(), sizeof(Flat)).value();
  auto encoder = Encoder::make(format_a).value();
  Flat record{0, 0.5f, 0, 0};
  warm_flow_controlled(pair, encoder, record);

  g_allocations.store(0);
  g_counting.store(true);
  bool all_idle = true;
  for (int i = 0; i < 100; ++i) {
    all_idle = pair.a.receive_view(0).code() == ErrorCode::kTimeout &&
               pair.b.receive_view(0).code() == ErrorCode::kTimeout &&
               all_idle;
  }
  g_counting.store(false);
  EXPECT_TRUE(all_idle);
  EXPECT_EQ(g_allocations.load(), 0u) << "an idle receive touched the heap";

  EXPECT_EQ(count_send_allocs(pair, encoder, record, 64), 0u)
      << "a warm flow-controlled send touched the heap";
}

// The durable flavour: the write-ahead append reuses the log's scratch,
// and the record's one copy lands in a recycled ring slot.
TEST(ZeroAlloc, DurableFlowControlledSendAllocatesNothing) {
  char dir[] = "/tmp/xmit_zero_alloc_XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  struct RemoveDir {
    const char* path;
    ~RemoveDir() { std::filesystem::remove_all(path); }
  } remove_dir{dir};
  {
    FormatRegistry reg_a;
    FormatRegistry reg_b;
    session::SessionOptions options;
    options.flow_control = true;
    auto pipe = net::Channel::pipe().value();
    session::SessionOptions sender_options = options;
    sender_options.durable_dir = dir;
    sender_options.durable_fsync = storage::FsyncPolicy::kNone;
    session::SessionPair pair{
        MessageSession(std::move(pipe.first), reg_a, sender_options),
        MessageSession(std::move(pipe.second), reg_b, options)};
    ASSERT_TRUE(pair.a.durable_status().is_ok());
    auto format_a =
        reg_a.register_format("Flat", flat_fields(), sizeof(Flat)).value();
    auto encoder = Encoder::make(format_a).value();
    Flat record{0, 0.5f, 0, 0};
    warm_flow_controlled(pair, encoder, record);

    EXPECT_EQ(count_send_allocs(pair, encoder, record, 64), 0u)
        << "a warm durable send touched the heap";
    EXPECT_EQ(pair.a.durable_last_seq(), 364u);
  }
}

// Grants behind data, in steady state: through a window of 4 records
// each end sends while the other's records sit unread in its socket, so
// a send short of credit reads past them to the grants behind. Those
// records stay where the channel read them until they are received:
// nothing is copied aside, so the sends touch the heap zero times. (The
// receives are not counted: each grant they send is queued as a vector
// of its own.)
TEST(ZeroAlloc, GrantBehindPeerDataAllocatesNothing) {
  FormatRegistry reg_a;
  FormatRegistry reg_b;
  session::SessionOptions options;
  options.flow_control = true;
  options.receive_window_records = 4;
  options.heartbeat_interval_ms = 60000;
  options.liveness_deadline_ms = 60000;
  auto pair = make_session_pipe(reg_a, reg_b, options).value();
  auto format_a =
      reg_a.register_format("Flat", flat_fields(), sizeof(Flat)).value();
  auto format_b =
      reg_b.register_format("Flat", flat_fields(), sizeof(Flat)).value();
  auto encoder_a = Encoder::make(format_a).value();
  auto encoder_b = Encoder::make(format_b).value();
  pbio::Decoder decoder_a(reg_a);
  pbio::Decoder decoder_b(reg_b);
  Arena arena;
  Flat to_b{0, 0.5f, 0, 0};
  Flat to_a{0, 0.5f, 0, 0};
  std::int32_t b_expects = 1;
  std::int32_t a_expects = 1;
  std::size_t swept = 0;  // rounds whose sends read past the peer's data
  bool measuring = false;
  std::uint64_t send_allocs = 0;
  const auto send = [&](MessageSession& end, const Encoder& encoder,
                        Flat& record) {
    record.a += 1;
    g_allocations.store(0);
    g_counting.store(measuring);
    const bool sent = end.send(encoder, &record).is_ok();
    g_counting.store(false);
    send_allocs += g_allocations.load();
    return sent;
  };

  const auto receive = [&](MessageSession& end, pbio::Decoder& decoder,
                           const pbio::FormatPtr& receiver,
                           std::int32_t& expects) {
    auto incoming = end.receive_view(1000);
    if (!incoming.is_ok()) return false;
    Flat out{};
    arena.rewind();
    return decoder.decode(incoming.value().bytes, *receiver, &out, arena)
               .is_ok() &&
           out.a == expects++;
  };
  const auto send_four = [&] {
    bool ok = true;
    for (int i = 0; i < 4; ++i) ok = send(pair.a, encoder_a, to_b) && ok;
    return ok;
  };
  // b's records land in a's socket, then b drains a's records, so its
  // grants land behind that data; a's next sends must reach them.
  const auto round = [&] {
    bool ok = true;
    for (int i = 0; i < 3; ++i) ok = send(pair.b, encoder_b, to_a) && ok;
    for (int i = 0; i < 4; ++i)
      ok = receive(pair.b, decoder_b, format_b, b_expects) && ok;
    const std::size_t read_before = pair.a.channel().bytes_received();
    ok = send_four() && ok;
    swept += pair.a.channel().bytes_received() > read_before ? 1 : 0;
    for (int i = 0; i < 3; ++i)
      ok = receive(pair.a, decoder_a, format_a, a_expects) && ok;
    return ok;
  };

  for (MessageSession* end : {&pair.a, &pair.b})
    ASSERT_EQ(end->receive_view(0).code(), ErrorCode::kTimeout);
  ASSERT_TRUE(send_four());
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(round()) << "warmup " << i;

  measuring = true;
  bool all_ok = true;
  for (int i = 0; i < 50; ++i) all_ok = round() && all_ok;
  measuring = false;

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(swept, 70u) << "every round's sends read past the peer's data";
  EXPECT_EQ(send_allocs, 0u)
      << "a send reading past the peer's data touched the heap";
}

// Var-bearing record: payload slices ship from caller memory, the decode
// arena is rewound (capacity retained) between records.
struct WithArray {
  std::int32_t timestep;
  std::int32_t size;
  float* data;
};

TEST(ZeroAlloc, DynamicArrayRoundTripAllocatesNothingAfterWarmup) {
  FormatRegistry reg_a;
  FormatRegistry reg_b;
  auto pair = make_session_pipe(reg_a, reg_b).value();
  std::vector<IOField> fields = {
      {"timestep", "integer", 4, offsetof(WithArray, timestep)},
      {"size", "integer", 4, offsetof(WithArray, size)},
      {"data", "float[size]", 4, offsetof(WithArray, data)},
  };
  auto format_a =
      reg_a.register_format("WithArray", fields, sizeof(WithArray)).value();
  auto receiver =
      reg_b.register_format("WithArray", fields, sizeof(WithArray)).value();
  auto encoder = Encoder::make(format_a).value();

  std::vector<float> payload(256);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<float>(i) * 0.5f;
  WithArray record{0, static_cast<std::int32_t>(payload.size()),
                   payload.data()};
  WithArray out{};
  Arena arena;
  pbio::Decoder decoder(reg_b);

  auto round_trip = [&]() -> bool {
    record.timestep += 1;
    if (!pair.a.send(encoder, &record).is_ok()) return false;
    auto incoming = pair.b.receive_view(1000);
    if (!incoming.is_ok()) return false;
    arena.rewind();
    if (!decoder
             .decode(incoming.value().bytes, *receiver, &out, arena)
             .is_ok())
      return false;
    return out.timestep == record.timestep && out.size == record.size &&
           out.data[255] == payload[255];
  };

  for (int i = 0; i < 10; ++i) ASSERT_TRUE(round_trip()) << "warmup " << i;

  g_allocations.store(0);
  g_counting.store(true);
  bool all_ok = true;
  for (int i = 0; i < 100; ++i) all_ok = round_trip() && all_ok;
  g_counting.store(false);

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "steady-state array round-trip touched the heap";
}

// Arena::rewind keeps capacity and collapses multi-chunk arenas.
// The ring recycles its slot buffers, but not without limit: a resumable
// sender that ships one outsized record among hundreds of small ones must
// not keep that record's buffer in every slot the indices cycle through.
// What stays on the heap after the stream is bounded by the configured
// replay and queue byte bounds, not by the sum of every large record.
TEST(ZeroAlloc, OutsizedRecordsDoNotPinRingMemory) {
  for (const bool flow_control : {false, true}) {
    FormatRegistry reg_a;
    FormatRegistry reg_b;
    session::SessionOptions options;
    options.resumable = true;
    options.flow_control = flow_control;
    auto pair = make_session_pipe(reg_a, reg_b, options).value();
    std::vector<IOField> fields = {
        {"timestep", "integer", 4, offsetof(WithArray, timestep)},
        {"size", "integer", 4, offsetof(WithArray, size)},
        {"data", "float[size]", 4, offsetof(WithArray, data)},
    };
    auto format_a =
        reg_a.register_format("WithArray", fields, sizeof(WithArray)).value();
    auto encoder = Encoder::make(format_a).value();
    std::vector<float> small(4, 0.5f);
    std::vector<float> large(128 * 1024, 0.25f);  // a 512 KiB record

    // Every 101st record is large; 101 is odd, so the large ones land in
    // distinct slots of a power-of-two ring. (Without flow control nothing
    // acks, so that ring evicts at its bound and warns once.)
    constexpr int kLargeEvery = 101;
    constexpr int kSends = kLargeEvery * 96;
    std::atomic<int> received{0};
    std::thread reader([&] {
      while (received.load() < kSends && pair.b.receive_view(2000).is_ok())
        received.fetch_add(1);
    });
    const std::size_t before = g_heap_bytes.load();
    WithArray record{0, 0, nullptr};
    for (int i = 0; i < kSends; ++i) {
      const std::vector<float>& data = i % kLargeEvery == 0 ? large : small;
      record.timestep = i;
      record.size = static_cast<std::int32_t>(data.size());
      record.data = const_cast<float*>(data.data());
      const Status sent = pair.a.send(encoder, &record);
      ASSERT_TRUE(sent.is_ok()) << sent.to_string();
    }
    // Flow control holds the tail back for credit: keep pumping it.
    for (int spins = 0; spins < 5000 && received.load() < kSends; ++spins)
      (void)pair.a.receive_view(1);
    reader.join();
    EXPECT_EQ(received.load(), kSends);
    const std::size_t after = g_heap_bytes.load();
    const std::size_t grown = after > before ? after - before : 0;
    EXPECT_LT(grown, options.replay_buffer_bytes + options.send_queue_bytes)
        << "flow_control=" << flow_control << ": " << grown
        << " heap bytes still held after the stream";
  }
}

// A durable sender reads a replay back through one log cursor that holds
// a whole segment image while the replay is owed. Once the wire has
// caught up the image goes: an idle session keeps none of it.
TEST(ZeroAlloc, ReplayReleasesTheLogImageOnceDrained) {
  char dir[] = "/tmp/xmit_zero_alloc_XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  struct RemoveDir {
    const char* path;
    ~RemoveDir() { std::filesystem::remove_all(path); }
  } remove_dir{dir};
  std::vector<IOField> fields = {
      {"timestep", "integer", 4, offsetof(WithArray, timestep)},
      {"size", "integer", 4, offsetof(WithArray, size)},
      {"data", "float[size]", 4, offsetof(WithArray, data)},
  };
  std::vector<float> data(512, 0.5f);  // a 2 KiB record
  constexpr int kRecords = 1500;       // a 3 MiB segment image
  session::SessionOptions options;
  options.flow_control = true;
  options.durable_dir = dir;
  options.durable_fsync = storage::FsyncPolicy::kNone;
  {
    // Fill the log: a spilling sender whose peer never grants credit.
    FormatRegistry registry;
    auto format =
        registry.register_format("WithArray", fields, sizeof(WithArray))
            .value();
    auto encoder = Encoder::make(format).value();
    session::SessionOptions filler = options;
    filler.slow_consumer = session::SlowConsumerPolicy::kSpillToLog;
    auto pipe = net::Channel::pipe().value();
    MessageSession sender(std::move(pipe.first), registry, filler);
    WithArray record{0, static_cast<std::int32_t>(data.size()), data.data()};
    for (int i = 0; i < kRecords; ++i) {
      record.timestep = i;
      ASSERT_TRUE(sender.send(encoder, &record).is_ok());
    }
  }

  // The sender restarts; a cold subscriber asks for all of it.
  FormatRegistry reborn_registry;
  FormatRegistry cold_registry;
  auto pipe = net::Channel::pipe().value();
  MessageSession reborn(std::move(pipe.first), reborn_registry, options);
  session::SessionOptions cold_options;
  cold_options.flow_control = true;
  MessageSession cold(std::move(pipe.second), cold_registry, cold_options);
  ASSERT_EQ(reborn.durable_last_seq(), static_cast<std::uint64_t>(kRecords));
  const std::size_t before = g_heap_bytes.load();
  ASSERT_TRUE(cold.request_replay(1).is_ok());
  std::atomic<int> received{0};
  std::thread reader([&] {
    while (received.load() < kRecords && cold.receive_view(2000).is_ok())
      received.fetch_add(1);
  });
  for (int spins = 0; spins < 5000 && received.load() < kRecords; ++spins)
    (void)reborn.receive_view(1);
  reader.join();
  ASSERT_EQ(received.load(), kRecords);
  (void)reborn.receive_view(1);
  const std::size_t after = g_heap_bytes.load();
  const std::size_t grown = after > before ? after - before : 0;
  EXPECT_LT(grown, std::size_t{1} << 20)
      << grown << " heap bytes still held after the replay drained";
}

TEST(ZeroAlloc, ArenaRewindRetainsCapacity) {
  Arena arena(64);  // small chunks force multi-chunk growth
  for (int i = 0; i < 10; ++i) arena.allocate(100);
  arena.rewind();  // collapses to one chunk
  std::size_t capacity = arena.bytes_in_use();
  EXPECT_GT(capacity, 0u);

  g_allocations.store(0);
  g_counting.store(true);
  for (int round = 0; round < 50; ++round) {
    arena.rewind();
    for (int i = 0; i < 10; ++i) arena.allocate(100);
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u);
  EXPECT_EQ(arena.bytes_in_use(), capacity);
}

}  // namespace
}  // namespace xmit
