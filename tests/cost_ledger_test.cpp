// The cost ledger: exact totals of one fixed, single-threaded exchange in
// each session mode — sendmsg calls, recv calls (a call that finds the
// socket empty counts), frames and wire bytes sent, and heap allocations.
// Wall-clock bounds are too coarse to referee a change of one syscall per
// record; these counts are exact, so a change that moves one shows here.
//
// The script runs over a socketpair with heartbeat and liveness timers set
// far past its length, so no timer frame lands in it:
//   - flow-controlled pairs first seed credit both ways (receive_view(0)
//     on each end, as a fresh pair must);
//   - 128 round trips: a record a -> b, then its reply b -> a;
//   - two bursts of 64 records a -> b, each drained by b after it is sent.
// The replay row reopens the durable sender's log and streams all 256
// records to a cold subscriber that asked for them from seq 1. The small-
// window row sends 256 one-way records a -> b through a receive window of
// 4 records, each received by b after it is sent.
//
// A change that moves a count updates its row of the table below and says
// why in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <ostream>
#include <string>

#include "alloc_counter.hpp"
#include "pbio/encode.hpp"
#include "pbio/registry.hpp"
#include "session/session.hpp"

namespace xmit {
namespace {

using pbio::Encoder;
using pbio::FormatRegistry;
using pbio::IOField;
using session::MessageSession;
using session::SessionOptions;
using session::SessionPair;

// Totals over both ends of a pair.
struct Counts {
  std::size_t sendmsg = 0;   // sendmsg calls
  std::size_t recv = 0;      // recv calls
  std::size_t messages = 0;  // frames wholly sent
  std::size_t bytes = 0;     // wire bytes sent, length prefixes included
  std::size_t allocs = 0;    // operator new calls during the script
  bool operator==(const Counts&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Counts& c) {
  return os << "{" << c.sendmsg << ", " << c.recv << ", " << c.messages
            << ", " << c.bytes << ", " << c.allocs << "}";
}

// The expected table: {sendmsg, recv, messages, bytes, allocs}.
constexpr Counts kPlain = {386, 258, 386, 22041, 62};
constexpr Counts kResumable = {386, 258, 386, 22041, 455};
constexpr Counts kFlowControlled = {394, 261, 394, 22273, 269};
constexpr Counts kDurableFlowControlled = {394, 261, 394, 22273, 298};
constexpr Counts kDurableReplayRequest = {12, 14, 264, 15910, 49};
constexpr Counts kOneWaySmallWindow = {387, 385, 387, 19493, 188};

constexpr int kRoundTrips = 128;
constexpr int kBurst = 64;
constexpr int kBursts = 2;
constexpr int kRecords = kRoundTrips + kBursts * kBurst;

struct Tick {
  std::int32_t id;
  float value;
  std::int32_t a;
  std::int32_t b;
};

struct Reply {
  std::int32_t id;
};

std::vector<IOField> tick_fields() {
  return {
      {"id", "integer", 4, offsetof(Tick, id)},
      {"value", "float", 4, offsetof(Tick, value)},
      {"a", "integer", 4, offsetof(Tick, a)},
      {"b", "integer", 4, offsetof(Tick, b)},
  };
}

std::vector<IOField> reply_fields() {
  return {{"id", "integer", 4, offsetof(Reply, id)}};
}

SessionOptions quiet(SessionOptions options) {
  options.heartbeat_interval_ms = 60000;
  options.liveness_deadline_ms = 60000;
  return options;
}

SessionOptions flow_controlled() {
  SessionOptions options;
  options.flow_control = true;
  return quiet(options);
}

SessionOptions durable_flow_controlled(const std::string& dir) {
  SessionOptions options = flow_controlled();
  options.durable_dir = dir;
  options.durable_fsync = storage::FsyncPolicy::kNone;
  return options;
}

struct TempDir {
  std::string path;
  TempDir() {
    char name[] = "/tmp/xmit_cost_ledger_XXXXXX";
    if (::mkdtemp(name) != nullptr) path = name;
  }
  ~TempDir() {
    if (!path.empty()) std::filesystem::remove_all(path);
  }
};

Counts totals(const MessageSession& a, const MessageSession& b) {
  Counts c;
  for (const MessageSession* end : {&a, &b}) {
    c.sendmsg += end->channel().sendmsg_calls();
    c.recv += end->channel().recv_calls();
    c.messages += end->channel().messages_sent();
    c.bytes += end->channel().bytes_sent();
  }
  return c;
}

// A fresh flow-controlled end grants its first credit on its first
// receive: seed both directions before anything is queued behind them.
void seed_credit(MessageSession& receiver, MessageSession& sender) {
  for (MessageSession* end : {&receiver, &sender})
    EXPECT_EQ(end->receive_view(0).code(), ErrorCode::kTimeout);
}

// Runs the script over `pair` (counted from the first call on either
// end) and returns its totals.
Counts run_script(SessionPair& pair, FormatRegistry& reg_a,
                  FormatRegistry& reg_b) {
  auto tick = Encoder::make(
      reg_a.register_format("Tick", tick_fields(), sizeof(Tick)).value())
                  .value();
  auto reply = Encoder::make(reg_b.register_format("Reply", reply_fields(),
                                                   sizeof(Reply))
                                 .value())
                   .value();
  g_allocations.store(0);
  g_counting.store(true);
  if (pair.a.flow_controlled()) seed_credit(pair.b, pair.a);
  Tick record{0, 0.5f, 1, 2};
  for (int i = 0; i < kRoundTrips; ++i) {
    ++record.id;
    EXPECT_TRUE(pair.a.send(tick, &record).is_ok()) << "round trip " << i;
    EXPECT_TRUE(pair.b.receive_view(1000).is_ok()) << "round trip " << i;
    const Reply back{record.id};
    EXPECT_TRUE(pair.b.send(reply, &back).is_ok()) << "round trip " << i;
    EXPECT_TRUE(pair.a.receive_view(1000).is_ok()) << "round trip " << i;
  }
  for (int burst = 0; burst < kBursts; ++burst) {
    for (int i = 0; i < kBurst; ++i) {
      ++record.id;
      EXPECT_TRUE(pair.a.send(tick, &record).is_ok()) << "burst " << burst;
    }
    for (int i = 0; i < kBurst; ++i)
      EXPECT_TRUE(pair.b.receive_view(1000).is_ok()) << "burst " << burst;
  }
  g_counting.store(false);
  EXPECT_EQ(pair.b.records_received(), static_cast<std::size_t>(kRecords));
  EXPECT_EQ(pair.a.records_received(), static_cast<std::size_t>(kRoundTrips));
  Counts counts = totals(pair.a, pair.b);
  counts.allocs = g_allocations.load();
  return counts;
}

TEST(CostLedger, Plain) {
  FormatRegistry reg_a, reg_b;
  auto pair = session::make_session_pipe(reg_a, reg_b, quiet({})).value();
  EXPECT_EQ(run_script(pair, reg_a, reg_b), kPlain);
}

TEST(CostLedger, Resumable) {
  FormatRegistry reg_a, reg_b;
  SessionOptions options;
  options.resumable = true;
  auto pair = session::make_session_pipe(reg_a, reg_b, quiet(options)).value();
  EXPECT_EQ(run_script(pair, reg_a, reg_b), kResumable);
}

TEST(CostLedger, FlowControlled) {
  FormatRegistry reg_a, reg_b;
  auto pair =
      session::make_session_pipe(reg_a, reg_b, flow_controlled()).value();
  EXPECT_EQ(run_script(pair, reg_a, reg_b), kFlowControlled);
}

// The sender's credit runs out every few records, so a send reads its
// socket for the grant it waits on: those reads are pinned as counts.
TEST(CostLedger, OneWayThroughASmallWindow) {
  FormatRegistry reg_a, reg_b;
  SessionOptions options = flow_controlled();
  options.receive_window_records = 4;
  auto pair = session::make_session_pipe(reg_a, reg_b, options).value();
  auto tick = Encoder::make(
      reg_a.register_format("Tick", tick_fields(), sizeof(Tick)).value())
                  .value();
  g_allocations.store(0);
  g_counting.store(true);
  seed_credit(pair.b, pair.a);
  Tick record{0, 0.5f, 1, 2};
  for (int i = 0; i < kRecords; ++i) {
    ++record.id;
    EXPECT_TRUE(pair.a.send(tick, &record).is_ok()) << "record " << i;
    EXPECT_TRUE(pair.b.receive_view(1000).is_ok()) << "record " << i;
  }
  g_counting.store(false);
  EXPECT_EQ(pair.b.records_received(), static_cast<std::size_t>(kRecords));
  Counts counts = totals(pair.a, pair.b);
  counts.allocs = g_allocations.load();
  EXPECT_EQ(counts, kOneWaySmallWindow);
}

// The sender logs every record ahead of the wire: one append per record.
Counts run_durable_script(const std::string& dir) {
  FormatRegistry reg_a, reg_b;
  auto pipe = net::Channel::pipe().value();
  SessionPair pair{MessageSession(std::move(pipe.first), reg_a,
                                  durable_flow_controlled(dir)),
                   MessageSession(std::move(pipe.second), reg_b,
                                  flow_controlled())};
  EXPECT_TRUE(pair.a.durable_status().is_ok());
  const Counts counts = run_script(pair, reg_a, reg_b);
  EXPECT_EQ(pair.a.durable_last_seq(), static_cast<std::uint64_t>(kRecords));
  return counts;
}

TEST(CostLedger, DurableFlowControlled) {
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  EXPECT_EQ(run_durable_script(dir.path), kDurableFlowControlled);
}

// A restarted durable sender streams its whole log to a cold subscriber,
// paced by the subscriber's credit; the sender runs only when the
// subscriber has nothing left to read.
TEST(CostLedger, DurableReplayRequest) {
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  (void)run_durable_script(dir.path);
  FormatRegistry reborn_registry, cold_registry;
  auto pipe = net::Channel::pipe().value();
  MessageSession reborn(std::move(pipe.first), reborn_registry,
                        durable_flow_controlled(dir.path));
  MessageSession cold(std::move(pipe.second), cold_registry,
                      flow_controlled());
  ASSERT_EQ(reborn.durable_last_seq(), static_cast<std::uint64_t>(kRecords));
  g_allocations.store(0);
  g_counting.store(true);
  seed_credit(cold, reborn);
  EXPECT_TRUE(cold.request_replay(1).is_ok());
  int received = 0;
  for (int turns = 0; received < kRecords && turns < 10 * kRecords; ++turns) {
    if (cold.receive_view(0).is_ok())
      ++received;
    else
      (void)reborn.receive_view(0);
  }
  g_counting.store(false);
  EXPECT_EQ(received, kRecords);
  EXPECT_EQ(reborn.durable_last_seq(), static_cast<std::uint64_t>(kRecords))
      << "a replay appends nothing";
  Counts counts = totals(reborn, cold);
  counts.allocs = g_allocations.load();
  EXPECT_EQ(counts, kDurableReplayRequest);
}

}  // namespace
}  // namespace xmit
