#include "net/faults.hpp"

#include <algorithm>

namespace xmit::net {

std::shared_ptr<FaultPlan> FaultPlan::fail_n_then_succeed(int n,
                                                          FaultAction fault) {
  auto plan = std::shared_ptr<FaultPlan>(new FaultPlan());
  plan->schedule_.assign(static_cast<std::size_t>(std::max(n, 0)), fault);
  return plan;
}

std::shared_ptr<FaultPlan> FaultPlan::sequence(
    std::vector<FaultAction> actions) {
  auto plan = std::shared_ptr<FaultPlan>(new FaultPlan());
  plan->schedule_ = std::move(actions);
  return plan;
}

std::shared_ptr<FaultPlan> FaultPlan::random(std::uint64_t seed, double p,
                                             std::vector<FaultAction> menu) {
  auto plan = std::shared_ptr<FaultPlan>(new FaultPlan());
  plan->randomized_ = true;
  plan->fault_probability_ = p;
  plan->menu_ = std::move(menu);
  plan->rng_ = std::make_unique<Rng>(seed);
  return plan;
}

std::shared_ptr<FaultPlan> FaultPlan::clear() {
  return std::shared_ptr<FaultPlan>(new FaultPlan());
}

FaultAction FaultPlan::next() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++requests_;
  FaultAction action;
  if (randomized_) {
    if (!menu_.empty() && rng_->chance(fault_probability_))
      action = menu_[rng_->below(menu_.size())];
  } else if (cursor_ < schedule_.size()) {
    action = schedule_[cursor_++];
  }
  if (action.kind != FaultKind::kNone) ++faults_;
  return action;
}

std::size_t FaultPlan::requests_seen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return requests_;
}

std::size_t FaultPlan::faults_injected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return faults_;
}

FaultHook FaultPlan::as_hook(std::shared_ptr<FaultPlan> plan) {
  return [plan](const std::string&) { return plan->next(); };
}

Status TruncatingChannel::send(std::span<const std::uint8_t> message) {
  FaultAction action = plan_ ? plan_->next() : FaultAction::none();
  if (action.kind == FaultKind::kTruncateBody &&
      action.truncate_at < message.size()) {
    ++truncated_;
    return inner_.send(message.first(action.truncate_at));
  }
  if (action.kind == FaultKind::kReset) {
    inner_.close();
    return make_error(ErrorCode::kIoError, "injected connection reset");
  }
  return inner_.send(message);
}

void arm_channel(Channel& channel, const FaultAction& action) {
  switch (action.kind) {
    case FaultKind::kKillAfterBytes:
      channel.arm_failure(InjectedFailure::kKillAfterBytes,
                          action.byte_budget);
      break;
    case FaultKind::kRstMidFrame:
      channel.arm_failure(InjectedFailure::kResetAfterBytes,
                          action.byte_budget);
      break;
    default:
      break;
  }
}

Result<std::size_t> StallingReader::consume_then_stall(
    const FaultAction& action, int timeout_ms) {
  if (action.kind != FaultKind::kStallReadsAfterBytes)
    return Status(ErrorCode::kInvalidArgument,
                  "StallingReader needs a stall_reads_after action");
  // The channel never reads past the budget, so the bytes it pulled off
  // the socket are exactly the bytes this persona consumed.
  const std::size_t stop_at = channel_.bytes_received() + action.byte_budget;
  channel_.stall_reads_after(action.byte_budget);
  std::size_t frames = 0;
  for (;;) {
    std::span<const std::uint8_t> frame;
    Status got;
    const bool whole = channel_.next_frame(frame, got);
    consumed_ = channel_.bytes_received();
    if (whole) {
      ++frames;
      continue;
    }
    if (consumed_ == stop_at && got.code() == ErrorCode::kResourceExhausted)
      break;  // budget spent: stop reading
    if (!got.is_ok()) return got;
    if (!channel_.poll_readable(timeout_ms))
      return Status(ErrorCode::kTimeout, "receive timeout");
  }
  return frames;  // park: the caller keeps this object (and the fd) alive
}

Result<HangingAcceptor> HangingAcceptor::listen(std::uint16_t port) {
  XMIT_ASSIGN_OR_RETURN(auto listener, ChannelListener::listen(port));
  return HangingAcceptor(std::move(listener));
}

Status HangingAcceptor::accept_and_hang(int timeout_ms) {
  XMIT_ASSIGN_OR_RETURN(auto channel, listener_.accept(timeout_ms));
  parked_.push_back(std::move(channel));
  return Status::ok();
}

}  // namespace xmit::net
