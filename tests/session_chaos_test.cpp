// Deterministic chaos matrix for resumable sessions.
//
// The central claim of the resumption layer is byte-level: *no matter
// which wire byte the transport dies on*, a resumable session pair
// recovers with zero lost, zero duplicated, in-order records. The matrix
// test proves it exhaustively — a dry run measures the total wire bytes
// of a 50-frame mixed announcement/record script, then the script is
// re-run once per byte offset with the first transport armed to die at
// exactly that byte. Socketpair kills preserve already-written bytes in
// the kernel buffer, so every scenario is fully deterministic.
//
// TCP flavours (sampled offsets, including abortive RST closes that may
// destroy in-flight data) run with a real listener and a concurrent
// accept/attach thread, which is what makes this suite meaningful under
// TSan as well as ASan.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "net/faults.hpp"
#include "pbio/dynrecord.hpp"
#include "session/session.hpp"

namespace xmit::session {
namespace {

struct ChaosA {
  std::int32_t id;
};
struct ChaosB {
  std::int32_t id;
  double v;
};

pbio::FormatPtr chaos_a(pbio::FormatRegistry& registry) {
  return registry
      .register_format("ChaosA", {{"id", "integer", 4, offsetof(ChaosA, id)}},
                       sizeof(ChaosA))
      .value();
}

pbio::FormatPtr chaos_b(pbio::FormatRegistry& registry) {
  return registry
      .register_format("ChaosB",
                       {{"id", "integer", 4, offsetof(ChaosB, id)},
                        {"v", "float", 8, offsetof(ChaosB, v)}},
                       sizeof(ChaosB))
      .value();
}

// Options that make byte-stream scenarios deterministic: heartbeats and
// liveness far beyond any test's runtime, so no ping ever rides the wire.
SessionOptions quiet_options() {
  SessionOptions options;
  options.resumable = true;
  options.heartbeat_interval_ms = 60000;
  options.liveness_deadline_ms = 60000;
  return options;
}

// An Endpoint over socketpairs: each dial makes a fresh pipe, hands the
// session one end (armed with the scenario's fault on the chosen dial)
// and queues the other end for the harness to attach to the receiver.
struct PipeRedialer {
  std::mutex mutex;
  std::deque<net::Channel> peers;
  net::InjectedFailure mode = net::InjectedFailure::kNone;
  std::size_t kill_at_dial = 0;
  std::size_t byte_budget = 0;
  std::size_t dials = 0;

  net::Endpoint endpoint() {
    return net::Endpoint::custom(
        "pipe-redialer", [this]() -> Result<net::Channel> {
          auto pipe = net::Channel::pipe();
          if (!pipe.is_ok()) return pipe.status();
          std::lock_guard<std::mutex> lock(mutex);
          net::Channel mine = std::move(pipe.value().first);
          if (dials == kill_at_dial && mode != net::InjectedFailure::kNone)
            mine.arm_failure(mode, byte_budget);
          ++dials;
          peers.push_back(std::move(pipe.value().second));
          return mine;
        });
  }

  bool take_peer(net::Channel* out) {
    std::lock_guard<std::mutex> lock(mutex);
    if (peers.empty()) return false;
    *out = std::move(peers.front());
    peers.pop_front();
    return true;
  }
};

constexpr int kScriptRecords = 50;
constexpr int kFormatSwitchAt = 20;  // mid-script announcement boundary

// Sends the mixed script: ChaosA records 0..19, then ChaosB (a second
// in-band announcement) 20..49. Every send must succeed — resumable
// sessions absorb transport deaths internally.
void run_script(MessageSession& sender, pbio::FormatRegistry& registry) {
  auto a_format = chaos_a(registry);
  auto b_format = chaos_b(registry);
  auto a_encoder = pbio::Encoder::make(a_format).value();
  auto b_encoder = pbio::Encoder::make(b_format).value();
  for (int i = 0; i < kScriptRecords; ++i) {
    Status sent;
    if (i < kFormatSwitchAt) {
      ChaosA record{i};
      sent = sender.send(a_encoder, &record);
    } else {
      ChaosB record{i, i * 0.5};
      sent = sender.send(b_encoder, &record);
    }
    ASSERT_TRUE(sent.is_ok()) << "send " << i << ": " << sent.to_string();
  }
}

std::int32_t record_id(const MessageSession::IncomingView& incoming) {
  auto reader = pbio::RecordReader::make(incoming.bytes,
                                         incoming.sender_format);
  if (!reader.is_ok()) return -1;
  auto id = reader.value().get_int("id");
  return id.is_ok() ? static_cast<std::int32_t>(id.value()) : -1;
}

// Drains the receiver to exhaustion: reads until the current transport
// has nothing more, then installs the next queued replacement, until
// neither yields anything. Single-threaded and deterministic.
void drain(MessageSession& receiver, PipeRedialer& redialer,
           std::vector<std::int32_t>& got) {
  for (;;) {
    auto incoming = receiver.receive_view(0);
    if (incoming.is_ok()) {
      got.push_back(record_id(incoming.value()));
      continue;
    }
    const ErrorCode code = incoming.status().code();
    ASSERT_EQ(code, ErrorCode::kTimeout)
        << "receiver surfaced " << incoming.status().to_string();
    net::Channel replacement;
    if (!redialer.take_peer(&replacement)) return;
    receiver.attach(std::move(replacement));
  }
}

// One matrix scenario: the first dialed transport dies after
// `kill_at_byte` outgoing wire bytes. Returns the sender's total wire
// bytes (meaningful in the dry run) via *total_bytes when non-null.
void run_kill_scenario(net::InjectedFailure mode, std::size_t kill_at_byte,
                       std::size_t* total_bytes) {
  pbio::FormatRegistry registry_a, registry_b;
  PipeRedialer redialer;
  redialer.mode = mode;
  redialer.byte_budget = kill_at_byte;

  MessageSession sender(redialer.endpoint(), registry_a, quiet_options());
  ASSERT_TRUE(sender.connect_now().is_ok());
  net::Channel first_peer;
  ASSERT_TRUE(redialer.take_peer(&first_peer));
  MessageSession receiver(std::move(first_peer), registry_b, quiet_options());

  run_script(sender, registry_a);
  if (total_bytes != nullptr) *total_bytes = sender.channel().bytes_sent();

  std::vector<std::int32_t> got;
  drain(receiver, redialer, got);

  ASSERT_EQ(got.size(), static_cast<std::size_t>(kScriptRecords))
      << "mode=" << static_cast<int>(mode) << " kill_at=" << kill_at_byte
      << " lost/duplicated records (receiver saw " << got.size() << ")";
  for (int i = 0; i < kScriptRecords; ++i)
    ASSERT_EQ(got[static_cast<std::size_t>(i)], i)
        << "out-of-order at position " << i << " (kill_at=" << kill_at_byte
        << ")";
  if (mode != net::InjectedFailure::kNone && kill_at_byte > 0) {
    EXPECT_GE(sender.transport_losses(), 1u) << "kill never fired";
    EXPECT_GE(receiver.reconnects(), 1u);
  }
  sender.close();
  receiver.close();
}

TEST(SessionChaos, PerByteKillMatrixOverPipes) {
  // Dry run: no fault, measures the script's exact wire length and
  // checks the baseline delivers everything.
  std::size_t total = 0;
  run_kill_scenario(net::InjectedFailure::kNone, 0, &total);
  if (HasFatalFailure()) return;
  ASSERT_GT(total, 0u);

  // Kill at every byte boundary of the scripted stream.
  for (std::size_t k = 0; k < total; ++k) {
    run_kill_scenario(net::InjectedFailure::kKillAfterBytes, k, nullptr);
    if (HasFatalFailure()) {
      ADD_FAILURE() << "matrix aborted at kill offset " << k << " of "
                    << total;
      return;
    }
  }
}

TEST(SessionChaos, QuarantineAndBudgetsSurviveReconnect) {
  // State preserved across reconnects: the malformed-frame budget a
  // hostile peer drew down must not reset when the transport changes.
  pbio::FormatRegistry registry_b;
  auto pipe = net::Channel::pipe().value();
  net::Channel raw = std::move(pipe.first);
  SessionOptions options = quiet_options();
  options.liveness_deadline_ms = 2000;
  MessageSession receiver(std::move(pipe.second), registry_b, options);
  DecodeLimits limits;
  limits.max_malformed_frames = 3;
  receiver.set_limits(limits);

  const std::vector<std::uint8_t> junk = {0x02, 0xFF};  // short data frame
  ASSERT_TRUE(raw.send(junk).is_ok());
  ASSERT_TRUE(raw.send(junk).is_ok());
  EXPECT_FALSE(receiver.receive(200).is_ok());
  EXPECT_FALSE(receiver.receive(200).is_ok());
  EXPECT_EQ(receiver.malformed_frames(), 2u);
  raw.close();

  auto next = net::Channel::pipe().value();
  receiver.attach(std::move(next.second));
  net::Channel raw2 = std::move(next.first);
  ASSERT_TRUE(raw2.send(junk).is_ok());
  ASSERT_TRUE(raw2.send(junk).is_ok());
  EXPECT_FALSE(receiver.receive(200).is_ok());  // third strike
  auto poisoned = receiver.receive(200);        // fourth blows the budget
  ASSERT_FALSE(poisoned.is_ok());
  EXPECT_EQ(poisoned.code(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(receiver.poisoned());
  EXPECT_EQ(receiver.malformed_frames(), 4u);  // carried across the attach
  EXPECT_EQ(receiver.reconnects(), 1u);
}

TEST(SessionChaos, TcpKillAndRstSubset) {
  const net::FaultAction faults[] = {
      net::FaultAction::kill_after(3),   net::FaultAction::kill_after(26),
      net::FaultAction::kill_after(41),  net::FaultAction::kill_after(120),
      net::FaultAction::reset_after(7),  net::FaultAction::reset_after(55),
      net::FaultAction::reset_after(200),
  };
  for (const net::FaultAction& fault : faults) {
    pbio::FormatRegistry registry_a, registry_b;
    auto tcp = make_session_tcp(registry_a, registry_b, quiet_options());
    ASSERT_TRUE(tcp.is_ok()) << tcp.status().to_string();
    auto& pair = tcp.value();
    net::arm_channel(pair.a.channel(), fault);

    std::atomic<bool> stop{false};
    std::thread acceptor([&] {
      while (!stop.load()) {
        auto accepted = pair.listener.accept(50);
        if (accepted.is_ok()) pair.b.attach(std::move(accepted).value());
      }
    });

    constexpr int kRecords = 20;
    auto format = chaos_a(registry_a);
    auto encoder = pbio::Encoder::make(format).value();
    for (int i = 0; i < kRecords; ++i) {
      ChaosA record{i};
      auto sent = pair.a.send(encoder, &record);
      ASSERT_TRUE(sent.is_ok()) << sent.to_string();
    }

    std::vector<std::int32_t> got;
    for (int spins = 0; spins < 200 && got.size() < kRecords; ++spins) {
      auto incoming = pair.b.receive_view(500);
      if (incoming.is_ok()) {
        got.push_back(record_id(incoming.value()));
        continue;
      }
      ASSERT_EQ(incoming.status().code(), ErrorCode::kTimeout)
          << incoming.status().to_string();
    }
    stop.store(true);
    acceptor.join();

    ASSERT_EQ(got.size(), static_cast<std::size_t>(kRecords))
        << "budget=" << fault.byte_budget
        << " kind=" << static_cast<int>(fault.kind);
    for (int i = 0; i < kRecords; ++i)
      EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
    EXPECT_GE(pair.a.transport_losses(), 1u);
    pair.a.close();
    pair.b.close();
  }
}

// The batched flush under the per-byte kill. A resumable flow-controlled
// TCP pair queues a burst before any credit has arrived; the receiver's
// first grant then releases the whole burst in one gather write, armed to
// die after `kill_at` of its bytes. After the redial and attach, every
// record arrives exactly once, in order. Returns the burst's wire bytes.
std::size_t run_fc_burst(bool armed, std::size_t kill_at) {
  constexpr int kBurst = 6;
  pbio::FormatRegistry registry_a, registry_b;
  SessionOptions options = quiet_options();
  options.flow_control = true;
  auto tcp = make_session_tcp(registry_a, registry_b, options);
  EXPECT_TRUE(tcp.is_ok()) << tcp.status().to_string();
  if (!tcp.is_ok()) return 0;
  auto& pair = tcp.value();
  std::atomic<bool> stop{false};
  std::thread acceptor([&] {
    while (!stop.load()) {
      auto accepted = pair.listener.accept(2);
      if (accepted.is_ok()) pair.b.attach(std::move(accepted).value());
    }
  });

  auto format = chaos_a(registry_a);
  auto encoder = pbio::Encoder::make(format).value();
  for (int i = 0; i < kBurst; ++i) {
    ChaosA record{i};
    EXPECT_TRUE(pair.a.send(encoder, &record).is_ok());
  }
  EXPECT_EQ(pair.a.send_queue_depth(), static_cast<std::size_t>(kBurst));
  (void)pair.a.receive_view(0);  // the sender's own first grant goes out
  const std::size_t before = pair.a.channel().bytes_sent();
  const std::size_t calls = pair.a.channel().sendmsg_calls();
  if (armed)
    pair.a.channel().arm_failure(net::InjectedFailure::kKillAfterBytes,
                                 kill_at);

  std::vector<std::int32_t> got;
  const auto receive = [&](int timeout_ms) {
    auto incoming = pair.b.receive_view(timeout_ms);
    if (incoming.is_ok())
      got.push_back(record_id(incoming.value()));
    else
      EXPECT_EQ(incoming.code(), ErrorCode::kTimeout)
          << incoming.status().to_string();
  };
  // The grant reaches the sender, whose next pump flushes (or dies).
  for (int spins = 0; spins < 2000 && pair.a.channel().is_open() &&
                      pair.a.send_queue_depth() > 0;
       ++spins) {
    receive(0);
    (void)pair.a.receive_view(1);
  }
  std::size_t burst_bytes = pair.a.channel().bytes_sent() - before;
  if (!armed) {
    EXPECT_EQ(pair.a.channel().sendmsg_calls(), calls + 1) << "one batch";
  } else if (!pair.a.channel().is_open()) {
    EXPECT_TRUE(pair.a.connect_now().is_ok());
  }
  for (int spins = 0;
       spins < 500 && got.size() < static_cast<std::size_t>(kBurst);
       ++spins) {
    receive(5);
    (void)pair.a.receive_view(0);
  }
  stop.store(true);
  acceptor.join();

  EXPECT_EQ(got.size(), static_cast<std::size_t>(kBurst))
      << "kill_at=" << kill_at;
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], static_cast<std::int32_t>(i)) << "kill_at=" << kill_at;
  if (armed) {
    EXPECT_GE(pair.a.transport_losses(), 1u);
  }
  pair.a.close();
  pair.b.close();
  return burst_bytes;
}

TEST(SessionChaos, FlowControlledBurstKillMatrixOverTcp) {
  const std::size_t total = run_fc_burst(/*armed=*/false, 0);
  if (HasFailure()) return;
  ASSERT_GT(total, 0u);
  for (std::size_t k = 0; k < total; ++k) {
    run_fc_burst(/*armed=*/true, k);
    if (HasFailure()) {
      ADD_FAILURE() << "matrix stopped at kill offset " << k << " of "
                    << total;
      return;
    }
  }
}

TEST(SessionChaos, AcceptThenHangTriggersLivenessTimeout) {
  // The "process alive, application wedged" persona: the peer accepts
  // the reconnect but never speaks. The liveness deadline must convert
  // that silence into a bounded kTimeout.
  pbio::FormatRegistry registry_a;
  auto hang = net::HangingAcceptor::listen().value();
  SessionOptions options;
  options.resumable = true;
  options.heartbeat_interval_ms = 50;
  options.liveness_deadline_ms = 300;
  MessageSession sender(net::Endpoint::tcp("127.0.0.1", hang.port()),
                        registry_a, options);
  ASSERT_TRUE(sender.connect_now().is_ok());
  ASSERT_TRUE(hang.accept_and_hang(1000).is_ok());

  Stopwatch elapsed;
  auto incoming = sender.receive(5000);
  ASSERT_FALSE(incoming.is_ok());
  EXPECT_EQ(incoming.code(), ErrorCode::kTimeout);
  EXPECT_NE(incoming.status().message().find("liveness"), std::string::npos)
      << incoming.status().message();
  EXPECT_LT(elapsed.elapsed_ms(), 4000.0);  // liveness, not the caller budget
  sender.close();  // detected peer death leaves the session closeable
  EXPECT_EQ(sender.receive(100).code(), ErrorCode::kIoError);
}

TEST(SessionChaos, PassivePeerThatNeverResumesSurfacesTimeout) {
  pbio::FormatRegistry registry_b;
  auto pipe = net::Channel::pipe().value();
  SessionOptions options;
  options.resumable = true;
  options.liveness_deadline_ms = 200;
  MessageSession receiver(std::move(pipe.second), registry_b, options);
  pipe.first.close();  // the peer dies and never dials back

  Stopwatch elapsed;
  auto incoming = receiver.receive(5000);
  ASSERT_FALSE(incoming.is_ok());
  EXPECT_EQ(incoming.code(), ErrorCode::kTimeout);
  EXPECT_NE(incoming.status().message().find("never resumed"),
            std::string::npos)
      << incoming.status().message();
  EXPECT_LT(elapsed.elapsed_ms(), 4000.0);
  receiver.close();
  EXPECT_EQ(receiver.receive(100).code(), ErrorCode::kIoError);
}

TEST(SessionChaos, ActivePeerWithDeadEndpointSurfacesTimeout) {
  // Find a port with nothing listening by binding and releasing it.
  std::uint16_t dead_port = 0;
  {
    auto listener = net::ChannelListener::listen().value();
    dead_port = listener.port();
  }
  pbio::FormatRegistry registry_a;
  SessionOptions options;
  options.resumable = true;
  options.liveness_deadline_ms = 300;
  options.reconnect_backoff.initial_backoff_ms = 10;
  options.reconnect_backoff.max_backoff_ms = 50;
  MessageSession sender(net::Endpoint::tcp("127.0.0.1", dead_port),
                        registry_a, options);
  Stopwatch elapsed;
  auto connected = sender.connect_now();
  ASSERT_FALSE(connected.is_ok());
  EXPECT_EQ(connected.code(), ErrorCode::kTimeout);
  EXPECT_LT(elapsed.elapsed_ms(), 4000.0);
  sender.close();
}

// A passive sender that adopts a transport through attach() must not put
// ring data on it before it has read the peer's resume handshake: the
// records the old transport lost have not been replayed yet, so fresh
// ones would overtake them (and their formats' re-announcement). The
// passive end holds k unacked records when the old transport dies, is
// attached to the active end's redial, and sends m more before its first
// receive. The active end must get all k+m exactly once, in order.
class SessionChaosAttach : public ::testing::TestWithParam<bool> {};

TEST_P(SessionChaosAttach, PassiveAttachSendBeforeReceiveLosesNothing) {
  constexpr int kUnacked = 5;
  constexpr int kFresh = 3;
  pbio::FormatRegistry registry_a, registry_b;
  SessionOptions options = quiet_options();
  options.flow_control = GetParam();
  auto tcp = make_session_tcp(registry_a, registry_b, options);
  ASSERT_TRUE(tcp.is_ok()) << tcp.status().to_string();
  auto& pair = tcp.value();
  // The active end's first receive seeds b's credit (flow control); b's
  // first receive answers the connect handshake.
  ASSERT_EQ(pair.a.receive_view(20).code(), ErrorCode::kTimeout);
  ASSERT_EQ(pair.b.receive_view(20).code(), ErrorCode::kTimeout);

  auto format = chaos_a(registry_b);
  auto encoder = pbio::Encoder::make(format).value();
  int next_id = 0;
  for (; next_id < kUnacked; ++next_id) {
    ChaosA record{next_id};
    ASSERT_TRUE(pair.b.send(encoder, &record).is_ok());
  }
  // The old transport dies with b's records unread in a's socket.
  pair.a.channel().close();
  // a redials inside its receive loop; b adopts the accepted transport.
  ASSERT_EQ(pair.a.receive_view(100).code(), ErrorCode::kTimeout);
  auto accepted = pair.listener.accept(5000);
  ASSERT_TRUE(accepted.is_ok()) << accepted.status().to_string();
  pair.b.attach(std::move(accepted).value());
  for (; next_id < kUnacked + kFresh; ++next_id) {
    ChaosA record{next_id};
    ASSERT_TRUE(pair.b.send(encoder, &record).is_ok());
  }

  std::vector<std::int32_t> got;
  for (int spins = 0; spins < 200 && got.size() < kUnacked + kFresh;
       ++spins) {
    auto passive = pair.b.receive_view(5);
    ASSERT_EQ(passive.code(), ErrorCode::kTimeout)
        << passive.status().to_string();
    auto incoming = pair.a.receive_view(20);
    if (incoming.is_ok()) {
      got.push_back(record_id(incoming.value()));
      continue;
    }
    ASSERT_EQ(incoming.code(), ErrorCode::kTimeout)
        << incoming.status().to_string();
  }
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kUnacked + kFresh));
  for (int i = 0; i < kUnacked + kFresh; ++i)
    EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(pair.a.malformed_frames(), 0u);
  EXPECT_EQ(pair.b.reconnects(), 1u);
  pair.a.close();
  pair.b.close();
}

INSTANTIATE_TEST_SUITE_P(FlowControl, SessionChaosAttach,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "On" : "Off";
                         });

}  // namespace
}  // namespace xmit::session
