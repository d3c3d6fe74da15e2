// Deterministic fault injection for the discovery plane.
//
// Every retry/backoff/degradation behaviour in this codebase is testable
// hermetically: an HttpServer consults a FaultHook once per request and
// the hook decides whether to serve normally, answer with an injected
// HTTP error, delay, truncate or corrupt the body, or drop the
// connection outright. FaultPlan builds the hook from a deterministic
// schedule (fail-N-then-succeed, an explicit action sequence, or a
// seeded random stream via common/rng.hpp), so a test asserting "two
// 500s then success" sees exactly that on every run.
//
// TruncatingChannel is the channel-side analogue: it delivers prefixes
// of outgoing frames so decoder paths can be hardened against partial
// input (a peer dying mid-record) without a real crash mid-send.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "common/rng.hpp"
#include "net/channel.hpp"

namespace xmit::net {

enum class FaultKind : std::uint8_t {
  kNone = 0,        // serve normally
  kHttpError,       // replace the response with `http_status` and no body
  kTruncateBody,    // full Content-Length header, body cut at truncate_at
  kCorruptBody,     // body bytes flipped, length preserved
  kPartialBody,     // body cut at truncate_at, Content-Length matching —
                    // the transport succeeds, only the application-level
                    // parse (e.g. a format-set envelope) can notice
  kReset,           // close the connection without writing a response
  kDelay,           // sleep delay_ms, then serve normally
  kKillAfterBytes,  // channel dies after byte_budget outgoing wire bytes
  kRstMidFrame,     // as kKillAfterBytes but abortive (TCP RST)
  kAcceptThenHang,  // accept the connection, then never speak (liveness)
  kStallReadsAfterBytes,  // peer reads byte_budget wire bytes, then stalls
                          // (fd open, never read again) — overload persona
  kZeroCreditPeer,        // peer drains frames but never grants 0x08 credit
                          // (a flow-control-unaware receiver) — overload
                          // persona; consumed by harnesses, not arm_channel
};

struct FaultAction {
  FaultKind kind = FaultKind::kNone;
  int http_status = 500;        // for kHttpError
  std::size_t truncate_at = 0;  // body bytes kept for kTruncateBody
  int delay_ms = 0;             // for kDelay
  std::size_t byte_budget = 0;  // for kKillAfterBytes / kRstMidFrame

  static FaultAction none() { return {}; }
  static FaultAction http_error(int status) {
    FaultAction a;
    a.kind = FaultKind::kHttpError;
    a.http_status = status;
    return a;
  }
  static FaultAction truncate(std::size_t keep_bytes) {
    FaultAction a;
    a.kind = FaultKind::kTruncateBody;
    a.truncate_at = keep_bytes;
    return a;
  }
  static FaultAction partial_body(std::size_t keep_bytes) {
    FaultAction a;
    a.kind = FaultKind::kPartialBody;
    a.truncate_at = keep_bytes;
    return a;
  }
  static FaultAction corrupt() {
    FaultAction a;
    a.kind = FaultKind::kCorruptBody;
    return a;
  }
  static FaultAction reset() {
    FaultAction a;
    a.kind = FaultKind::kReset;
    return a;
  }
  static FaultAction delay(int ms) {
    FaultAction a;
    a.kind = FaultKind::kDelay;
    a.delay_ms = ms;
    return a;
  }
  static FaultAction kill_after(std::size_t bytes) {
    FaultAction a;
    a.kind = FaultKind::kKillAfterBytes;
    a.byte_budget = bytes;
    return a;
  }
  static FaultAction reset_after(std::size_t bytes) {
    FaultAction a;
    a.kind = FaultKind::kRstMidFrame;
    a.byte_budget = bytes;
    return a;
  }
  static FaultAction accept_then_hang() {
    FaultAction a;
    a.kind = FaultKind::kAcceptThenHang;
    return a;
  }
  static FaultAction stall_reads_after(std::size_t bytes) {
    FaultAction a;
    a.kind = FaultKind::kStallReadsAfterBytes;
    a.byte_budget = bytes;
    return a;
  }
  static FaultAction zero_credit_peer() {
    FaultAction a;
    a.kind = FaultKind::kZeroCreditPeer;
    return a;
  }
};

// Translates a byte-budget FaultAction into the channel's injected-failure
// seam. Non-budget kinds leave the channel untouched.
void arm_channel(Channel& channel, const FaultAction& action);

// Consulted by HttpServer once per request, on the server thread, with
// the request path. The returned action is applied to that response.
using FaultHook = std::function<FaultAction(const std::string& path)>;

// A deterministic, consumable schedule of fault actions. Shared-pointer
// semantics so the same plan can be installed as a server hook and still
// be inspected by the test afterwards; all methods are thread-safe.
class FaultPlan {
 public:
  // The first `n` requests get `fault`; everything after succeeds.
  static std::shared_ptr<FaultPlan> fail_n_then_succeed(int n,
                                                        FaultAction fault);
  // Requests consume `actions` in order; requests past the end succeed.
  static std::shared_ptr<FaultPlan> sequence(std::vector<FaultAction> actions);
  // Every request faults with probability `p`, drawn deterministically
  // from `seed`; faulting requests pick uniformly from `menu`.
  static std::shared_ptr<FaultPlan> random(std::uint64_t seed, double p,
                                           std::vector<FaultAction> menu);
  // No faults ever (useful to turn a plan off by swapping it out).
  static std::shared_ptr<FaultPlan> clear();

  // Consume one request slot.
  FaultAction next();

  std::size_t requests_seen() const;
  std::size_t faults_injected() const;

  // Adapter usable as HttpServer::set_fault_hook argument; keeps the
  // plan alive and counting while installed.
  static FaultHook as_hook(std::shared_ptr<FaultPlan> plan);

 private:
  FaultPlan() = default;

  mutable std::mutex mutex_;
  // consumed front to back
  std::vector<FaultAction> schedule_ XMIT_GUARDED_BY(mutex_);
  std::size_t cursor_ XMIT_GUARDED_BY(mutex_) = 0;
  bool randomized_ XMIT_GUARDED_BY(mutex_) = false;
  double fault_probability_ XMIT_GUARDED_BY(mutex_) = 0;
  std::vector<FaultAction> menu_ XMIT_GUARDED_BY(mutex_);
  std::unique_ptr<Rng> rng_ XMIT_GUARDED_BY(mutex_);
  std::size_t requests_ XMIT_GUARDED_BY(mutex_) = 0;
  std::size_t faults_ XMIT_GUARDED_BY(mutex_) = 0;
};

// Wraps a Channel and delivers only a prefix of each outgoing frame's
// payload, per the plan (kTruncateBody's truncate_at, or everything for
// kNone). The frame itself stays well-formed — the receiver gets a
// complete frame holding a truncated record, exactly what a crashed
// sender's flushed partial write looks like after reframing.
class TruncatingChannel {
 public:
  TruncatingChannel(Channel& inner, std::shared_ptr<FaultPlan> plan)
      : inner_(inner), plan_(std::move(plan)) {}

  Status send(std::span<const std::uint8_t> message);
  Status send(const std::vector<std::uint8_t>& message) {
    return send(std::span<const std::uint8_t>(message));
  }

  std::size_t frames_truncated() const { return truncated_; }

 private:
  Channel& inner_;
  std::shared_ptr<FaultPlan> plan_;
  std::size_t truncated_ = 0;
};

// The stalled-reader persona behind FaultKind::kStallReadsAfterBytes: a
// peer that reads exactly `byte_budget` wire bytes, then wedges — the fd
// stays open (no EOF, no RST) but the kernel receive buffer fills and the
// sender's socket stops accepting bytes. This is the overload failure
// that a blocking send_all cannot survive and that the channel send
// deadline + session flow control exist to bound.
class StallingReader {
 public:
  // Takes ownership of the peer-facing channel.
  explicit StallingReader(Channel channel) : channel_(std::move(channel)) {}

  // Pulls exactly `action.byte_budget` wire bytes (headers included) off
  // the socket, then parks the channel open; fails if the socket stays
  // silent for `timeout_ms` first. Returns the number of complete frames
  // drained.
  Result<std::size_t> consume_then_stall(const FaultAction& action,
                                         int timeout_ms = 5000);

  std::size_t bytes_consumed() const { return consumed_; }
  Channel& channel() { return channel_; }

 private:
  Channel channel_;
  std::size_t consumed_ = 0;
};

// A listener persona that accepts connections and then never sends a
// byte — the "process alive, application wedged" failure the liveness
// deadline exists to detect. Accepted channels are parked (fds held
// open) so the dialer sees a healthy connection that just goes silent.
class HangingAcceptor {
 public:
  static Result<HangingAcceptor> listen(std::uint16_t port = 0);

  std::uint16_t port() const { return listener_.port(); }

  // Accepts one connection and parks it. The parked fd stays open until
  // this object is destroyed, so the peer never sees EOF either.
  Status accept_and_hang(int timeout_ms = 5000);

  std::size_t parked() const { return parked_.size(); }

 private:
  explicit HangingAcceptor(ChannelListener listener)
      : listener_(std::move(listener)) {}

  ChannelListener listener_;
  std::vector<Channel> parked_;
};

}  // namespace xmit::net
