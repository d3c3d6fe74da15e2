// Overload soak: a fast sender against every slow-consumer persona, for
// every SlowConsumerPolicy (ctest label `overload`; tools/run_overload.sh
// runs this matrix under AddressSanitizer and ThreadSanitizer).
//
// Personas:
//   slow        drains every record, 300us late — alive, just behind
//   bursty      drains in bursts of 8 with 20ms naps — alive, jittery
//   stalled     drains a handful of records, then never calls receive
//               again (fd open, kernel buffer fills) — wedged
//   zero-credit a receiver with flow control off: it consumes frames but
//               never grants tag-0x08 credit, so the sender's window
//               never opens — the fc-unaware peer
//
// Invariants asserted across the matrix:
//   - sends never block indefinitely: every send() returns, with a typed
//     error when the policy rejects
//   - bounded sender memory: queue high-water marks stay within the
//     configured record/byte bounds
//   - kSpillToLog loses nothing: every accepted record reaches an alive
//     consumer (the log streams the overflow back)
//   - kShedOldest accounts exactly: accepted = delivered + shed, and the
//     peer's 0x09-derived count agrees with the sender's
//   - heartbeats keep flowing under overload: an alive-but-slow consumer
//     never trips the liveness verdict
//
// Plus the liveness blind-spot regression (satellite of the same PR): a
// send wedged toward a peer that stopped reading must surface the
// kTimeout liveness verdict within a bounded wait, not hang forever.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "net/faults.hpp"
#include "pbio/dynrecord.hpp"
#include "session/session.hpp"

namespace xmit::session {
namespace {

struct Sample {
  std::int32_t id;
  std::int32_t n;
  float* series;
};

constexpr std::size_t kSeriesLength = 16;

pbio::FormatPtr sample_format(pbio::FormatRegistry& registry) {
  return registry
      .register_format(
          "Sample",
          {{"id", "integer", 4, offsetof(Sample, id)},
           {"n", "integer", 4, offsetof(Sample, n)},
           {"series", "float[n]", 4, offsetof(Sample, series)}},
          sizeof(Sample))
      .value();
}

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/xmit_overload_XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    const std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

enum class Persona { kSlow, kBursty, kStalled, kZeroCredit };

const char* persona_name(Persona persona) {
  switch (persona) {
    case Persona::kSlow: return "slow";
    case Persona::kBursty: return "bursty";
    case Persona::kStalled: return "stalled";
    case Persona::kZeroCredit: return "zero-credit";
  }
  return "?";
}

struct SoakResult {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t delivered = 0;       // records the drainer actually got
  std::size_t data_loss_gaps = 0;  // kDataLoss statuses the drainer saw
  std::size_t spilled = 0;
  std::size_t shed = 0;
  std::uint64_t peer_shed_seen = 0;  // receiver's 0x09-derived count
  double block_ms = 0;
  std::size_t queue_peak_records = 0;
  std::size_t queue_peak_bytes = 0;
  bool liveness_timeout = false;  // any send returned kTimeout
  Status last_rejection;
};

constexpr std::size_t kQueueRecords = 24;
constexpr std::size_t kQueueBytes = 256u << 10;
constexpr std::uint64_t kSendCount = 200;

// One soak run: kSendCount sends through a flow-controlled socketpair at
// the given persona, under the given policy. The sender end then pumps
// until the drainer plateaus, so spilled/queued records get their chance
// to land before the counters are read.
SoakResult run_soak(SlowConsumerPolicy policy, Persona persona) {
  pbio::FormatRegistry sender_registry, receiver_registry;
  auto pipe = net::Channel::pipe().value();

  TempDir dir;
  SessionOptions sender_options;
  sender_options.flow_control = true;
  sender_options.slow_consumer = policy;
  sender_options.send_queue_records = kQueueRecords;
  sender_options.send_queue_bytes = kQueueBytes;
  sender_options.send_block_deadline_ms = 400;
  sender_options.liveness_deadline_ms = 60000;  // liveness is not on trial
  if (policy == SlowConsumerPolicy::kSpillToLog) {
    sender_options.durable_dir = dir.path();
    sender_options.durable_fsync = storage::FsyncPolicy::kNone;
  }
  SessionOptions receiver_options;
  // The zero-credit persona is a receiver with flow control off: data
  // frames decode fine, credit just never comes back.
  receiver_options.flow_control = persona != Persona::kZeroCredit;
  receiver_options.receive_window_records = 16;

  MessageSession sender(std::move(pipe.first), sender_registry,
                        sender_options);
  MessageSession receiver(std::move(pipe.second), receiver_registry,
                          receiver_options);

  std::atomic<std::size_t> delivered{0};
  std::atomic<std::size_t> gaps{0};
  std::atomic<bool> sender_done{false};
  std::thread drainer([&] {
    std::size_t drained = 0;
    for (;;) {
      if (persona == Persona::kStalled && drained >= 8) {
        // Wedged: stop calling receive entirely, but keep the fd open
        // (no EOF for the sender) until the soak ends.
        while (!sender_done.load())
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return;
      }
      auto incoming = receiver.receive_view(200);
      if (incoming.is_ok()) {
        ++drained;
        delivered.fetch_add(1, std::memory_order_relaxed);
        if (persona == Persona::kSlow)
          std::this_thread::sleep_for(std::chrono::microseconds(300));
        if (persona == Persona::kBursty && drained % 8 == 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        continue;
      }
      const ErrorCode code = incoming.code();
      if (code == ErrorCode::kDataLoss) {
        gaps.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (code == ErrorCode::kNotFound) return;
      if (code == ErrorCode::kTimeout) {
        if (sender_done.load()) return;
        continue;
      }
      return;  // poisoned or transport failure: the soak is over
    }
  });

  auto format = sample_format(sender_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series(kSeriesLength, 0.5f);
  Sample record{0, static_cast<std::int32_t>(kSeriesLength), series.data()};

  SoakResult result;
  for (std::uint64_t i = 0; i < kSendCount; ++i) {
    record.id = static_cast<std::int32_t>(i);
    Status sent = sender.send(encoder, &record);
    if (sent.is_ok()) {
      ++result.accepted;
      continue;
    }
    ++result.rejected;
    result.last_rejection = sent;
    if (sent.code() == ErrorCode::kTimeout) result.liveness_timeout = true;
    // kDisconnect severs the transport; nothing further can be accepted.
    if (policy == SlowConsumerPolicy::kDisconnect) break;
    // Rejection is the datum, not the duration: three deadline-priced
    // refusals prove the bound without soaking 400ms apiece for the rest.
    if (result.rejected >= 3) break;
  }

  // Drain phase: only the sender's own calls pump the queue and the
  // spill stream, so poll until the drainer's count plateaus.
  std::size_t plateau = delivered.load();
  int stable = 0;
  for (int i = 0; i < 400 && stable < 15; ++i) {
    [[maybe_unused]] auto pumped = sender.receive_view(10);
    const std::size_t now = delivered.load();
    stable = (now == plateau && sender.send_queue_depth() == 0) ? stable + 1
                                                                : 0;
    plateau = now;
  }
  sender_done.store(true);
  sender.close();
  drainer.join();

  result.delivered = delivered.load();
  result.data_loss_gaps = gaps.load();
  result.spilled = sender.records_spilled();
  result.shed = sender.records_shed();
  result.peer_shed_seen = receiver.peer_shed_records();
  result.block_ms = sender.send_block_ms();
  result.queue_peak_records = sender.send_queue_depth_peak();
  result.queue_peak_bytes = sender.send_queue_bytes_peak();
  receiver.close();
  return result;
}

// The invariants every (policy, persona) cell must hold.
void check_common(const SoakResult& result) {
  EXPECT_LE(result.queue_peak_records, kQueueRecords);
  EXPECT_LE(result.queue_peak_bytes, kQueueBytes);
  EXPECT_EQ(result.accepted + result.rejected <= kSendCount, true);
}

bool alive(Persona persona) {
  return persona == Persona::kSlow || persona == Persona::kBursty;
}

constexpr Persona kPersonas[] = {Persona::kSlow, Persona::kBursty,
                                 Persona::kStalled, Persona::kZeroCredit};

TEST(SessionOverload, BlockWithDeadlineBoundsEveryWait) {
  for (Persona persona : kPersonas) {
    SCOPED_TRACE(persona_name(persona));
    const SoakResult result =
        run_soak(SlowConsumerPolicy::kBlockWithDeadline, persona);
    check_common(result);
    if (alive(persona)) {
      // Slow but draining: every record is eventually accepted and
      // delivered, and the liveness verdict never fires (heartbeats and
      // credit kept flowing the whole time).
      EXPECT_EQ(result.accepted, kSendCount);
      EXPECT_EQ(result.delivered, kSendCount);
      EXPECT_FALSE(result.liveness_timeout);
    } else {
      // Wedged or credit-starved: the deadline converts "would block
      // forever" into typed kResourceExhausted, with the wait accounted.
      EXPECT_GT(result.rejected, 0u);
      EXPECT_EQ(result.last_rejection.code(), ErrorCode::kResourceExhausted)
          << result.last_rejection.to_string();
      EXPECT_GT(result.block_ms, 0.0);
    }
  }
}

TEST(SessionOverload, SpillToLogLosesNoAcceptedRecord) {
  for (Persona persona : kPersonas) {
    SCOPED_TRACE(persona_name(persona));
    const SoakResult result =
        run_soak(SlowConsumerPolicy::kSpillToLog, persona);
    check_common(result);
    // The ring is a cache, the log is the truth: the queue never rejects
    // while the durable log is healthy.
    EXPECT_EQ(result.accepted, kSendCount);
    EXPECT_EQ(result.rejected, 0u);
    if (alive(persona)) {
      // Every accepted record lands, in order, even the ones that left
      // memory: the pump streamed them back from disk under credit.
      EXPECT_EQ(result.delivered, kSendCount);
      EXPECT_EQ(result.data_loss_gaps, 0u);
    }
  }
}

TEST(SessionOverload, ShedOldestAccountsForEveryDrop) {
  for (Persona persona : kPersonas) {
    SCOPED_TRACE(persona_name(persona));
    const SoakResult result =
        run_soak(SlowConsumerPolicy::kShedOldest, persona);
    check_common(result);
    EXPECT_EQ(result.accepted, kSendCount);  // shed never rejects a send
    if (alive(persona)) {
      // Exact shed accounting: what was not delivered was shed, named to
      // the peer in 0x09 notices, and both ends agree on the count. An
      // honest, accounted shed is NOT data loss — the notice advances the
      // dedup window knowingly, so no kDataLoss verdict fires.
      EXPECT_EQ(result.delivered + result.shed, kSendCount);
      EXPECT_EQ(result.peer_shed_seen, result.shed);
      EXPECT_EQ(result.data_loss_gaps, 0u);
    }
  }
}

TEST(SessionOverload, DisconnectSeversInsteadOfBuffering) {
  for (Persona persona : kPersonas) {
    SCOPED_TRACE(persona_name(persona));
    const SoakResult result =
        run_soak(SlowConsumerPolicy::kDisconnect, persona);
    check_common(result);
    if (!alive(persona)) {
      EXPECT_GT(result.rejected, 0u);
      EXPECT_EQ(result.last_rejection.code(), ErrorCode::kResourceExhausted)
          << result.last_rejection.to_string();
    }
  }
}

// Regression: a resumable flow-controlled session under default options
// used to evict unacked records while its consumer was merely slow — the
// queue watermark (192) plus the credit window (128) exceeds
// replay_buffer_records (256) — so a resume after that reported kDataLoss.
// Now the SlowConsumerPolicy fires at the replay bound instead: nothing
// accepted leaves memory before its ack unless a durable log covers it.
TEST(SessionOverload, ResumableFlowControlNeverEvictsUnackedRecords) {
  pbio::FormatRegistry sender_registry, receiver_registry;
  SessionOptions options;
  options.flow_control = true;
  options.resumable = true;
  options.send_block_deadline_ms = 50;
  auto pair =
      make_session_pipe(sender_registry, receiver_registry, options).value();
  ASSERT_EQ(pair.b.receive_view(0).code(), ErrorCode::kTimeout);  // credit

  auto format = sample_format(sender_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series(kSeriesLength, 0.5f);
  Sample record{0, static_cast<std::int32_t>(kSeriesLength), series.data()};
  std::size_t accepted = 0;
  Status refused;
  for (int i = 0; i < 400 && refused.is_ok(); ++i) {
    record.id = i;
    refused = pair.a.send(encoder, &record);
    if (refused.is_ok()) ++accepted;
  }
  EXPECT_EQ(refused.code(), ErrorCode::kResourceExhausted)
      << refused.to_string();
  EXPECT_EQ(pair.a.evicted_records(), 0u);
  EXPECT_LE(accepted, options.replay_buffer_records);

  // Every accepted record is still deliverable, in order.
  std::vector<std::int64_t> got;
  for (int spins = 0; spins < 1000 && got.size() < accepted; ++spins) {
    (void)pair.a.receive_view(0);  // absorbs grants, pumps the ring
    auto incoming = pair.b.receive_view(20);
    if (!incoming.is_ok()) {
      ASSERT_EQ(incoming.code(), ErrorCode::kTimeout)
          << incoming.status().to_string();
      continue;
    }
    auto reader = pbio::RecordReader::make(incoming.value().bytes,
                                           incoming.value().sender_format)
                      .value();
    got.push_back(reader.get_int("id").value());
  }
  ASSERT_EQ(got.size(), accepted);
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], static_cast<std::int64_t>(i));
}

// kShedOldest on a resumable session with no durable log. Shedding frees
// only queued records, so once the unacked in-flight frames (and the
// notices that took the place of shed runs) fill the replay bound, the
// send is refused; an unacked record is never evicted. Every accepted
// record is still accounted for: delivered + shed == accepted.
TEST(SessionOverload, ResumableShedOldestRefusesAtTheReplayBound) {
  pbio::FormatRegistry sender_registry, receiver_registry;
  SessionOptions options;
  options.flow_control = true;
  options.resumable = true;
  options.slow_consumer = SlowConsumerPolicy::kShedOldest;
  options.receive_window_records = 200;  // credit for most of the bound
  options.send_queue_records = 64;       // sheds long before it fills
  auto pair =
      make_session_pipe(sender_registry, receiver_registry, options).value();
  ASSERT_EQ(pair.b.receive_view(0).code(), ErrorCode::kTimeout);  // credit

  auto format = sample_format(sender_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series(kSeriesLength, 0.5f);
  Sample record{0, static_cast<std::int32_t>(kSeriesLength), series.data()};
  std::size_t accepted = 0;
  Status refused;
  for (int i = 0; i < 2000 && refused.is_ok(); ++i) {
    record.id = i;
    refused = pair.a.send(encoder, &record);
    if (refused.is_ok()) ++accepted;
  }
  EXPECT_EQ(refused.code(), ErrorCode::kResourceExhausted)
      << refused.to_string();
  EXPECT_GT(pair.a.records_shed(), 0u);
  EXPECT_EQ(pair.a.evicted_records(), 0u);
  ASSERT_LE(pair.a.records_shed(), accepted);

  const std::size_t survivors = accepted - pair.a.records_shed();
  std::vector<std::int64_t> got;
  for (int spins = 0; spins < 1000 && got.size() < survivors; ++spins) {
    (void)pair.a.receive_view(0);  // absorbs grants, pumps the ring
    auto incoming = pair.b.receive_view(20);
    if (!incoming.is_ok()) {
      ASSERT_EQ(incoming.code(), ErrorCode::kTimeout)
          << incoming.status().to_string();
      continue;
    }
    auto reader = pbio::RecordReader::make(incoming.value().bytes,
                                           incoming.value().sender_format)
                      .value();
    got.push_back(reader.get_int("id").value());
  }
  EXPECT_EQ(got.size(), survivors);
  EXPECT_EQ(pair.b.peer_shed_records(), pair.a.records_shed());
  for (std::size_t i = 1; i < got.size(); ++i) EXPECT_LT(got[i - 1], got[i]);
}

// Satellite regression: the liveness blind spot. Before the channel send
// deadline existed, a sender wedged in send_all toward a peer that
// stopped reading could hang past any liveness deadline — outbound
// blocking starved the inbound liveness check. Now the channel bounds the
// send, and the send path converts "send blocked a whole liveness
// window with nothing inbound" into the same kTimeout verdict a silent
// receive would produce.
TEST(SessionOverload, LivenessDeadlineCoversBlockedSends) {
  pbio::FormatRegistry sender_registry;
  auto listener = net::ChannelListener::listen(0).value();

  SessionOptions options;
  options.resumable = true;
  options.liveness_deadline_ms = 600;
  options.reconnect_backoff = net::RetryPolicy::none();
  MessageSession sender(net::Endpoint::tcp("127.0.0.1", listener.port()),
                        sender_registry, options);
  ASSERT_TRUE(sender.connect_now().is_ok());

  // The peer drains the handshake and the first few frames, then wedges
  // with the fd open: no EOF, no RST, just a kernel buffer that fills.
  net::StallingReader stalled(listener.accept(2000).value());
  Status drained_status = Status::ok();
  std::thread reader([&] {
    auto drained = stalled.consume_then_stall(
        net::FaultAction::stall_reads_after(4096), 2000);
    drained_status = drained.status();
    // Park until the test is done; destroying the channel would hand the
    // sender a clean EOF instead of a stall.
    std::this_thread::sleep_for(std::chrono::seconds(6));
  });

  auto format = sample_format(sender_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series(4096, 1.0f);  // 16 KiB records fill fast
  Sample record{0, 4096, series.data()};

  Stopwatch watch;
  Status verdict = Status::ok();
  for (int i = 0; i < 4096; ++i) {
    record.id = i;
    Status sent = sender.send(encoder, &record);
    if (!sent.is_ok()) {
      verdict = sent;
      break;
    }
    ASSERT_LT(watch.elapsed_ms(), 30000.0) << "send never failed";
  }
  // The wedged peer must surface as the liveness kTimeout verdict, and
  // within the same order of magnitude as the deadline — not a hang.
  EXPECT_EQ(verdict.code(), ErrorCode::kTimeout) << verdict.to_string();
  EXPECT_LT(watch.elapsed_ms(), 10000.0);
  sender.close();
  reader.join();
  // The persona stopped reading at its budget exactly, read-ahead and
  // all: not a frame's worth (nor a read buffer's worth) past it.
  EXPECT_TRUE(drained_status.is_ok()) << drained_status.to_string();
  EXPECT_EQ(stalled.bytes_consumed(), 4096u);
  EXPECT_EQ(stalled.channel().bytes_received(), 4096u);
}

}  // namespace
}  // namespace xmit::session
