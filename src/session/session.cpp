#include "session/session.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <thread>

#include "analysis/plan_verify.hpp"
#include "common/endian.hpp"
#include "pbio/format_wire.hpp"

namespace xmit::session {
namespace {

constexpr std::uint8_t kTagFormat = 0x01;
constexpr std::uint8_t kTagRecord = 0x02;
constexpr std::uint8_t kTagHandshake = 0x03;
constexpr std::uint8_t kTagPing = 0x04;
constexpr std::uint8_t kTagPong = 0x05;
constexpr std::uint8_t kTagDurableRange = 0x06;
constexpr std::uint8_t kTagReplayRequest = 0x07;
constexpr std::uint8_t kTagCredit = 0x08;
constexpr std::uint8_t kTagShed = 0x09;

// [u64 first-seq | u64 last-seq]
constexpr std::size_t kDurableRangePayloadBytes = 16;
// [u64 last-seq-received | u64 window-records | u64 window-bytes]
constexpr std::size_t kCreditPayloadBytes = 24;
// [u64 first-seq | u64 last-seq]
constexpr std::size_t kShedPayloadBytes = 16;
// A window (records or bytes) or shed span past this is not a plausible
// drain budget on any hardware this decade — it is an attack on the
// credit arithmetic.
constexpr std::uint64_t kMaxCreditWindow = 1ull << 48;
// Control frames waiting to go out; droppable ones (heartbeats, grants)
// are skipped past this depth because a fresher copy always follows.
constexpr std::size_t kControlQueueCap = 64;

// [u8 flags | u64 session id | u32 epoch | u64 last-seq-received]
constexpr std::size_t kHandshakePayloadBytes = 21;
constexpr std::uint8_t kHandshakeInitiate = 0x01;
constexpr std::size_t kSeqBytes = 8;
// A ring slot's wire frame: [u32 LE length | tag | ...].
constexpr std::size_t kLenBytes = 4;
constexpr std::size_t kRecordWireHead = kLenBytes + 1 + kSeqBytes;
// Read-back frames one pump batch gathers: two slices each (head and
// payload), so a full batch fills one 128-slot iovec array.
constexpr std::size_t kReadBackBatch = 64;

// A record frame's head: [u32 LE length | 0x02 | u64 LE seq].
void put_record_head(std::uint8_t* out, std::uint64_t seq,
                     std::size_t wire_bytes) {
  store_with_order<std::uint32_t>(
      out, static_cast<std::uint32_t>(wire_bytes - kLenBytes),
      ByteOrder::kLittle);
  out[kLenBytes] = kTagRecord;
  store_with_order<std::uint64_t>(out + kLenBytes + 1, seq, ByteOrder::kLittle);
}

bool is_notice(const std::vector<std::uint8_t>& wire) {
  return wire[kLenBytes] == kTagShed;
}

std::uint64_t generate_session_id() {
  // Distinct per session within the process, never zero (the multiplier
  // is odd, so k * m mod 2^64 == 0 only for k == 0).
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1) * 0x9E3779B97F4A7C15ull;
}

}  // namespace

MessageSession::MessageSession(net::Channel channel,
                               pbio::FormatRegistry& registry)
    : MessageSession(std::move(channel), registry, SessionOptions{}) {}

MessageSession::MessageSession(net::Channel channel,
                               pbio::FormatRegistry& registry,
                               SessionOptions options)
    : channel_(std::move(channel)),
      registry_(&registry),
      decoder_(std::make_unique<pbio::Decoder>(registry)),
      attach_slot_(std::make_unique<AttachSlot>()),
      options_(options),
      resumable_(options.resumable),
      session_id_(options.session_id) {
  // Sessions decode against formats a remote peer described; every plan
  // compiled from that metadata is statically verified before first use.
  analysis::register_plan_verifier();
  decoder_->set_verify_plans(true);
  decoder_->set_plan_cache_budget(options_.plan_cache_budget);
  last_inbound_ms_ = last_poll_ms_ = coarse_now_ms();
  init_durability();
  configure_transport();
}

MessageSession::MessageSession(net::Endpoint endpoint,
                               pbio::FormatRegistry& registry,
                               SessionOptions options)
    : endpoint_(std::move(endpoint)),
      registry_(&registry),
      decoder_(std::make_unique<pbio::Decoder>(registry)),
      attach_slot_(std::make_unique<AttachSlot>()),
      options_(options),
      resumable_(true),
      session_id_(options.session_id != 0 ? options.session_id
                                          : generate_session_id()) {
  options_.resumable = true;
  analysis::register_plan_verifier();
  decoder_->set_verify_plans(true);
  decoder_->set_plan_cache_budget(options_.plan_cache_budget);
  last_inbound_ms_ = last_poll_ms_ = coarse_now_ms();
  init_durability();
}

void MessageSession::init_durability() {
  if (options_.durable_dir.empty()) return;
  durable_ = true;
  resumable_ = true;
  options_.resumable = true;
  storage::LogOptions log_options;
  log_options.segment_bytes = options_.durable_segment_bytes;
  log_options.fsync = options_.durable_fsync;
  log_options.retention_segments = options_.durable_retention_segments;
  auto log = storage::RecordLog::open(options_.durable_dir, log_options,
                                      limits_);
  if (!log.is_ok()) {
    durable_error_ = log.status();
    return;
  }
  log_ = std::make_unique<storage::RecordLog>(std::move(log).value());
  auto catalog = storage::FormatCatalog::open(
      options_.durable_dir + "/catalog.cat", limits_);
  if (!catalog.is_ok()) {
    durable_error_ = catalog.status();
    return;
  }
  catalog_ =
      std::make_unique<storage::FormatCatalog>(std::move(catalog).value());
  // Recover identity: a stored meta names the session this directory
  // belongs to. An explicit, different options_.session_id wins (the
  // caller is deliberately rebinding the directory).
  if (auto meta = storage::load_session_meta(
          options_.durable_dir + "/session.meta", limits_)) {
    if (options_.session_id == 0 || options_.session_id == meta->session_id) {
      session_id_ = meta->session_id;
      epoch_ = meta->epoch;
    }
  }
  if (session_id_ == 0 && active()) session_id_ = generate_session_id();
  // Resume send-side sequencing past what the log already holds, and
  // bring the persisted formats back so replay can re-announce them.
  // A restarted sender owes nothing until a resume or a replay request
  // says what the peer lacks.
  if (!log_->empty()) next_seq_ = log_->last_seq() + 1;
  next_transmit_seq_ = next_seq_;
  Status loaded = catalog_->load_into(*registry_);
  if (!loaded.is_ok()) durable_error_ = loaded;
}

Status MessageSession::persist_meta() {
  if (!durable_ || session_id_ == 0) return Status::ok();
  return storage::store_session_meta(
      options_.durable_dir + "/session.meta",
      storage::SessionMeta{session_id_, epoch_});
}

Status MessageSession::append_durable(std::uint64_t seq,
                                      pbio::FormatId format_id,
                                      std::span<const IoSlice> slices) {
  if (!durable_) return Status::ok();
  if (!durable_error_.is_ok()) return durable_error_;
  Status appended = log_->append(seq, format_id, slices);
  if (!appended.is_ok()) durable_error_ = appended;
  return appended;
}

Status MessageSession::catalog_put(const pbio::Format& format) {
  if (!durable_) return Status::ok();
  if (!durable_error_.is_ok()) return durable_error_;
  if (catalog_->contains(format.id())) return Status::ok();
  auto ptr = registry_->by_id(format.id());
  if (!ptr.is_ok()) return Status::ok();  // not registry-owned: skip
  Status put = catalog_->put(ptr.value());
  if (!put.is_ok()) durable_error_ = put;
  return put;
}

Status MessageSession::request_replay(std::uint64_t from_seq) {
  if (from_seq == 0)
    return Status(ErrorCode::kInvalidArgument,
                  "replay cannot start at sequence 0");
  XMIT_RETURN_IF_ERROR(ready_to_send());
  if (!channel_.is_open())
    return Status(ErrorCode::kIoError,
                  "no transport to request a replay on");
  // Rewind the dedup window so the historical records are delivered
  // instead of being reported as an already-seen range or a gap.
  if (last_seq_received_ >= from_seq) last_seq_received_ = from_seq - 1;
  std::uint8_t frame[1 + kSeqBytes];
  frame[0] = kTagReplayRequest;
  store_with_order<std::uint64_t>(frame + 1, from_seq, ByteOrder::kLittle);
  queue_control(std::span<const std::uint8_t>(frame, sizeof(frame)),
                /*droppable=*/false);
  return pump_send_queue();
}

void MessageSession::set_limits(const DecodeLimits& limits) {
  limits_ = limits;
  decoder_->set_limits(limits);
}

Status MessageSession::note_malformed(Status status) {
  ++malformed_frames_;
  if (malformed_frames_ > limits_.max_malformed_frames) {
    poisoned_ = true;
    return Status(ErrorCode::kResourceExhausted,
                  "session poisoned: peer exceeded the malformed-frame "
                  "budget (" +
                      std::to_string(limits_.max_malformed_frames) +
                      "); last error: " + status.message());
  }
  return status;
}

Status MessageSession::connect_now() {
  if (!active())
    return Status(ErrorCode::kUnsupported,
                  "connect_now requires an endpoint-backed session");
  if (channel_.is_open()) return Status::ok();
  return reconnect(options_.liveness_deadline_ms);
}

void MessageSession::attach(net::Channel replacement) {
  std::lock_guard<std::mutex> lock(attach_slot_->mutex);
  attach_slot_->pending = std::move(replacement);
}

void MessageSession::install_pending_attach() {
  std::optional<net::Channel> pending;
  {
    std::lock_guard<std::mutex> lock(attach_slot_->mutex);
    if (attach_slot_->pending.has_value()) {
      pending.emplace(std::move(*attach_slot_->pending));
      attach_slot_->pending.reset();
    }
  }
  if (!pending.has_value()) return;
  channel_ = std::move(*pending);
  configure_transport();
  drop_transport_queue();
  // The peer that dialed this transport opens with its resume handshake;
  // a passive session's ring waits for it (and the replay it triggers),
  // or fresh frames would overtake the ones the old transport lost.
  resume_pending_ = !active();
  ++reconnects_;
  last_inbound_ms_ = coarse_now_ms();
  transport_lost_ms_ = -1;
}

void MessageSession::note_transport_lost() {
  // Idempotent per outage: losing an already-lost transport (e.g. a pump
  // failure racing a receive failure on the same death) is one loss.
  if (!channel_.is_open() && transport_lost_ms_ >= 0) return;
  channel_.close();
  drop_transport_queue();
  ++transport_losses_;
  transport_lost_ms_ = clock_.elapsed_ms();
}

void MessageSession::configure_transport() {
  // Bounded sends are the liveness fix: a sender wedged in a blocking
  // write toward a peer that stopped reading must observe kTimeout within
  // the liveness window instead of suppressing its own heartbeats forever.
  if (resumable_ || options_.flow_control)
    channel_.set_send_deadline(options_.liveness_deadline_ms);
}

void MessageSession::drop_transport_queue() {
  // A ring frame the dead transport cut short retransmits in full (and
  // re-frames cleanly) on whatever channel comes next. Queued control
  // frames are stale there: the resume re-announces every format the
  // peer's ack does not cover, and re-grants credit.
  tx_cursor_ = 0;
  control_cursor_ = 0;
  control_queue_.clear();
}

Status MessageSession::ready_to_send() {
  if (closed_) return Status(ErrorCode::kIoError, "session closed");
  if (durable_ && !durable_error_.is_ok())
    return Status(durable_error_.code(),
                  "durable session cannot accept sends: " +
                      durable_error_.message());
  if (!resumable_) return Status::ok();
  install_pending_attach();
  if (channel_.is_open()) return Status::ok();
  if (active()) return reconnect(options_.liveness_deadline_ms);
  // Passive and disconnected: sends buffer into the replay queue and go
  // out when the peer resumes.
  return Status::ok();
}

Status MessageSession::await_transport(int budget_ms) {
  const double start = clock_.elapsed_ms();
  for (;;) {
    install_pending_attach();
    if (channel_.is_open()) return Status::ok();
    if (closed_) return Status(ErrorCode::kIoError, "session closed");
    if (active()) {
      const int used = static_cast<int>(clock_.elapsed_ms() - start);
      return reconnect(std::max(budget_ms - used, 0));
    }
    const double since_lost =
        transport_lost_ms_ < 0 ? 0 : clock_.elapsed_ms() - transport_lost_ms_;
    if (since_lost >= options_.liveness_deadline_ms)
      return Status(ErrorCode::kTimeout,
                    "peer never resumed within the liveness deadline");
    if (clock_.elapsed_ms() - start >= budget_ms)
      return Status(ErrorCode::kTimeout, "session receive timeout");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

Status MessageSession::reconnect(int budget_ms) {
  if (closed_) return Status(ErrorCode::kIoError, "session closed");
  if (!active())
    return Status(ErrorCode::kUnsupported,
                  "session has no endpoint to redial");
  const double start = clock_.elapsed_ms();
  for (;;) {
    const double since_lost =
        transport_lost_ms_ < 0 ? 0 : clock_.elapsed_ms() - transport_lost_ms_;
    const double liveness_left = options_.liveness_deadline_ms - since_lost;
    const double budget_left = budget_ms - (clock_.elapsed_ms() - start);
    const double window = std::min(liveness_left, budget_left);
    if (window <= 0)
      return Status(ErrorCode::kTimeout,
                    "peer unreachable: could not resume the session within "
                    "the liveness deadline");
    net::RetryPolicy policy = options_.reconnect_backoff;
    policy.deadline_ms = window;
    auto dialed = endpoint_.dial(policy);
    if (!dialed.is_ok()) {
      if (!net::is_transient(dialed.status().code()) &&
          dialed.status().code() != ErrorCode::kNotFound)
        return Status(ErrorCode::kTimeout,
                      "peer unreachable: could not resume the session "
                      "within the liveness deadline: " +
                          dialed.status().to_string());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;  // the window check above bounds this loop
    }
    channel_ = std::move(dialed).value();
    configure_transport();
    drop_transport_queue();
    ++epoch_;
    if (epoch_ > 1) ++reconnects_;
    last_inbound_ms_ = coarse_now_ms();
    // Identity-ahead-of-wire: the bumped epoch must hit the disk before
    // any peer hears it, or a crash between handshake and persist would
    // resurrect us with a stale epoch the peer rejects as rollback.
    Status persisted = persist_meta();
    if (!persisted.is_ok()) return persisted;  // disk trouble, not transport
    resume(/*initiate=*/true);
    Status resumed = pump_send_queue();
    if (resumed.is_ok()) {
      transport_lost_ms_ = -1;
      return Status::ok();
    }
    if (channel_.is_open()) {
      // The write side died instantly but the read side is still open: a
      // peer that spoke first and half-closed, its final frames still
      // buffered inbound. Hand the channel to the receive path to drain;
      // EOF there marks the loss and triggers the next redial. The loss
      // clock keeps running so this cannot defeat the liveness deadline.
      if (transport_lost_ms_ < 0) transport_lost_ms_ = clock_.elapsed_ms();
      return Status::ok();
    }
    // The fresh transport died mid-handshake or mid-replay (another
    // injected kill, a racing peer crash): dial again.
    note_transport_lost();
  }
}

void MessageSession::resume(bool initiate) {
  std::uint8_t frame[1 + kHandshakePayloadBytes];
  frame[0] = kTagHandshake;
  frame[1] = initiate ? kHandshakeInitiate : 0;
  store_with_order<std::uint64_t>(frame + 2, session_id_, ByteOrder::kLittle);
  store_with_order<std::uint32_t>(frame + 10, epoch_, ByteOrder::kLittle);
  store_with_order<std::uint64_t>(frame + 14, last_seq_received_,
                                  ByteOrder::kLittle);
  queue_control(std::span<const std::uint8_t>(frame, sizeof(frame)),
                /*droppable=*/false);
  if (durable_ && log_ != nullptr && !log_->empty()) {
    std::uint8_t advert[1 + kDurableRangePayloadBytes];
    advert[0] = kTagDurableRange;
    store_with_order<std::uint64_t>(advert + 1, log_->first_seq(),
                                    ByteOrder::kLittle);
    store_with_order<std::uint64_t>(advert + 9, log_->last_seq(),
                                    ByteOrder::kLittle);
    queue_control(std::span<const std::uint8_t>(advert, sizeof(advert)),
                  /*droppable=*/false);
  }
  // Announcements the peer's ack does not cover may never have arrived;
  // un-mark them so they go out again ahead of the frames that need them.
  // Formats the *peer* announced have no announce_seq_ entry and stay.
  for (const auto& [fid, seq] : announce_seq_)
    if (seq > peer_acked_seq_) announced_.erase(fid);
  replay_from_ = std::min(replay_from_, peer_acked_seq_ + 1);
  resume_pending_ = false;
}

Status MessageSession::absorb_ack(std::uint64_t last_seq) {
  if (last_seq >= next_seq_)
    return Status(ErrorCode::kMalformedInput,
                  "peer acknowledges records that were never sent");
  if (last_seq > peer_acked_seq_) peer_acked_seq_ = last_seq;
  release_acked();
  return Status::ok();
}

void MessageSession::release_acked() {
  while (ring_head_ < ring_tx_ && ring_at(ring_head_).seq <= peer_acked_seq_)
    free_slot(ring_at(ring_head_++));
}

Status MessageSession::process_handshake(
    std::span<const std::uint8_t> payload) {
  if (payload.size() != kHandshakePayloadBytes)
    return Status(ErrorCode::kMalformedInput,
                  "handshake frame must carry exactly 21 payload bytes");
  const std::uint8_t flags = payload[0];
  if ((flags & ~kHandshakeInitiate) != 0)
    return Status(ErrorCode::kMalformedInput, "unknown handshake flag bits");
  const std::uint64_t sid =
      load_with_order<std::uint64_t>(payload.data() + 1, ByteOrder::kLittle);
  const std::uint32_t epoch =
      load_with_order<std::uint32_t>(payload.data() + 9, ByteOrder::kLittle);
  const std::uint64_t last =
      load_with_order<std::uint64_t>(payload.data() + 13, ByteOrder::kLittle);
  if (sid == 0)
    return Status(ErrorCode::kMalformedInput, "handshake session id is zero");
  if (session_id_ != 0 && sid != session_id_)
    return Status(ErrorCode::kMalformedInput,
                  "handshake names a foreign session id");
  const bool initiate = (flags & kHandshakeInitiate) != 0;
  if (initiate) {
    // A resumed epoch must move forward; equal or lower is a replayed or
    // forged handshake and must not rewind delivery state.
    if (epoch <= epoch_)
      return Status(ErrorCode::kMalformedInput, "handshake epoch rollback");
  } else if (epoch != epoch_) {
    return Status(ErrorCode::kMalformedInput,
                  "handshake reply epoch does not match this session");
  }
  XMIT_RETURN_IF_ERROR(absorb_ack(last));
  const bool identity_changed = session_id_ != sid || (initiate && epoch_ != epoch);
  if (session_id_ == 0) session_id_ = sid;
  if (initiate) {
    epoch_ = epoch;
    // Adopted identity hits the disk before we answer for it.
    if (identity_changed) XMIT_RETURN_IF_ERROR(persist_meta());
    // The drop cut both directions: replay our own unacked frames too.
    resume(/*initiate=*/false);
    // A resumed sender restarts against our current windows immediately.
    maybe_grant(/*force=*/true);
    // A failed write is left to the receive path: its next read meets
    // the dead transport.
    (void)pump_send_queue();
  }
  return Status::ok();
}

void MessageSession::apply_replay() {
  // Every frame from `from` on goes out again in seq order: from the ring,
  // and from the log what memory no longer holds. Shed notices replay in
  // position, or their records would read as silent loss at the receiver.
  const std::uint64_t from = std::min(replay_from_, next_transmit_seq_);
  replay_from_ = kNoReplay;
  replay_until_ = next_seq_;
  next_transmit_seq_ = from;
  // Owed again, nothing queued is fresh: the send queue is empty.
  queued_bytes_ = 0;
  data_queue_records_ = 0;
  while (ring_tx_ > ring_head_ && ring_at(ring_tx_ - 1).first >= from)
    --ring_tx_;
  log_cursor_.reset();
}

void MessageSession::maybe_ping() {
  if (!(resumable_ || options_.flow_control) || !channel_.is_open()) return;
  const double now = clock_.elapsed_ms();
  if (now - last_ping_ms_ < options_.heartbeat_interval_ms) return;
  last_ping_ms_ = now;
  send_ack_frame(kTagPing);
}

void MessageSession::send_ack_frame(std::uint8_t tag) {
  std::uint8_t frame[1 + kSeqBytes];
  frame[0] = tag;
  store_with_order<std::uint64_t>(frame + 1, last_seq_received_,
                                  ByteOrder::kLittle);
  // The control queue keeps heartbeats flowing even while a data frame is
  // parked mid-wire; a full queue drops the frame (a fresher one always
  // follows). A ping doubles as a credit probe: the pong that answers it
  // comes with a fresh grant. A failed write is left to the receive path
  // that called us: its next read meets the dead transport.
  queue_control(std::span<const std::uint8_t>(frame, sizeof(frame)),
                /*droppable=*/true);
  if (tag == kTagPong) maybe_grant(/*force=*/true);
  (void)pump_send_queue();
}

MessageSession::OutFrame& MessageSession::ring_push() {
  if (ring_end_ - ring_head_ == ring_.size()) {
    // Full: double it, moving every slot (and its buffer) in order.
    std::vector<OutFrame> grown(std::max<std::size_t>(16, ring_.size() * 2));
    for (std::size_t i = 0; i < ring_.size(); ++i)
      grown[i] = std::move(ring_at(ring_head_ + i));
    ring_ = std::move(grown);
    ring_tx_ -= ring_head_;
    ring_end_ -= ring_head_;
    ring_head_ = 0;
  }
  return ring_at(ring_end_++);
}

void MessageSession::free_slot(OutFrame& slot) {
  ring_bytes_ -= slot.wire.size();
  const std::size_t share =
      (options_.replay_buffer_bytes + options_.send_queue_bytes) / ring_.size();
  if (slot.wire.capacity() > share) slot.wire = std::vector<std::uint8_t>();
}

// --- flow control ------------------------------------------------------

Status MessageSession::process_credit(std::span<const std::uint8_t> payload) {
  if (payload.size() != kCreditPayloadBytes)
    return Status(ErrorCode::kParseError, "bad credit-grant frame length");
  const std::uint64_t ack =
      load_with_order<std::uint64_t>(payload.data(), ByteOrder::kLittle);
  const std::uint64_t window_records =
      load_with_order<std::uint64_t>(payload.data() + 8, ByteOrder::kLittle);
  const std::uint64_t window_bytes =
      load_with_order<std::uint64_t>(payload.data() + 16, ByteOrder::kLittle);
  // Every hostile shape is rejected before any of it touches credit
  // state: a poisonous grant must not move the windows *and* cost budget.
  if (window_records == 0 || window_bytes == 0)
    return Status(ErrorCode::kMalformedInput,
                  "zero credit window: an honest receiver pauses a sender "
                  "by withholding grants, never by granting zero");
  if (window_records > kMaxCreditWindow || window_bytes > kMaxCreditWindow)
    return Status(ErrorCode::kMalformedInput,
                  "credit window is implausibly large");
  std::uint64_t reach = 0;
  if (!checked_add(ack, window_records, &reach))
    return Status(ErrorCode::kMalformedInput, "credit reach wraps u64");
  if (reach < credit_seq_limit_)
    return Status(ErrorCode::kMalformedInput,
                  "credit rollback: grant reach regressed below an "
                  "allowance already extended");
  XMIT_RETURN_IF_ERROR(absorb_ack(ack));
  credit_seq_limit_ = reach;
  credit_bytes_window_ = window_bytes;
  ++credit_grants_received_;
  return Status::ok();
}

Status MessageSession::process_shed(std::span<const std::uint8_t> payload) {
  if (payload.size() != kShedPayloadBytes)
    return Status(ErrorCode::kParseError, "bad shed-notice frame length");
  const std::uint64_t first =
      load_with_order<std::uint64_t>(payload.data(), ByteOrder::kLittle);
  const std::uint64_t last =
      load_with_order<std::uint64_t>(payload.data() + 8, ByteOrder::kLittle);
  if (first == 0)
    return Status(ErrorCode::kMalformedInput,
                  "shed notice cannot start at sequence 0");
  if (last < first)
    return Status(ErrorCode::kMalformedInput,
                  "shed notice range is inverted");
  if (last - first + 1 > kMaxCreditWindow)
    return Status(ErrorCode::kMalformedInput,
                  "shed notice span is implausibly large");
  if (first <= last_seq_received_)
    return Status(ErrorCode::kMalformedInput,
                  "shed notice rewinds over already-delivered records");
  // Records missing *before* the announced range were lost silently —
  // that is still a real gap, reported once, distinct from the honest
  // shed which is accounted and not an error.
  Status gap = Status::ok();
  if (first > last_seq_received_ + 1) {
    const std::uint64_t lost = first - last_seq_received_ - 1;
    gap = Status(ErrorCode::kDataLoss,
                 std::to_string(lost) +
                     " record(s) lost in a sequence gap before a shed "
                     "notice the peer did not account for");
  }
  peer_shed_records_ += last - first + 1;
  last_seq_received_ = last;
  return gap;
}

void MessageSession::maybe_grant(bool force) {
  if (!options_.flow_control || !channel_.is_open()) return;
  // request_replay rewinds the dedup window; grants stay monotone on the
  // high-water mark so an honest replay never reads as credit rollback.
  const std::uint64_t ack = std::max(last_seq_received_, last_grant_ack_);
  const std::uint64_t drained = ack - last_grant_ack_;
  if (!force && drained * 2 < options_.receive_window_records) return;
  std::uint8_t frame[1 + kCreditPayloadBytes];
  frame[0] = kTagCredit;
  store_with_order<std::uint64_t>(frame + 1, ack, ByteOrder::kLittle);
  store_with_order<std::uint64_t>(
      frame + 9, static_cast<std::uint64_t>(options_.receive_window_records),
      ByteOrder::kLittle);
  store_with_order<std::uint64_t>(
      frame + 17, static_cast<std::uint64_t>(options_.receive_window_bytes),
      ByteOrder::kLittle);
  if (queue_control(std::span<const std::uint8_t>(frame, sizeof(frame)),
                    /*droppable=*/true)) {
    ++credit_grants_sent_;
    last_grant_ack_ = ack;
  }
  (void)pump_send_queue();
}

bool MessageSession::queue_control(std::span<const std::uint8_t> frame,
                                   bool droppable) {
  // Droppable frames (heartbeats, grants) are always superseded by a
  // fresher copy, so a full control queue simply skips them; must-deliver
  // frames (announcements) ride past the cap — they are few and bounded
  // by the format population.
  if (droppable && control_queue_.size() >= kControlQueueCap) return false;
  std::vector<std::uint8_t>& wire =
      control_queue_.emplace_back(kLenBytes + frame.size());
  store_with_order<std::uint32_t>(
      wire.data(), static_cast<std::uint32_t>(frame.size()),
      ByteOrder::kLittle);
  std::memcpy(wire.data() + kLenBytes, frame.data(), frame.size());
  return true;
}

void MessageSession::queue_announcement(const pbio::Format& format) {
  ByteBuffer frame;
  frame.append_byte(kTagFormat);
  serialize_format(format, frame);
  queue_control(frame.span(), /*droppable=*/false);
  ++announcements_sent_;
  metadata_bytes_sent_ += frame.size();
}

bool MessageSession::announce_again(pbio::FormatId id, std::uint64_t seq) {
  if (seq >= replay_until_ || id == 0 || announced_.contains(id))
    return false;
  auto format = registry_->by_id(id);
  if (!format.is_ok()) return false;
  queue_announcement(*format.value());
  announced_.insert(id);
  announce_seq_[id] = seq;
  return true;
}

Status MessageSession::pump_send_queue() {
  // Flow control is the only thing that may leave frames queued: its
  // credit gates the data, and a socket that will not take the batch
  // parks it for a later call. Without it the gate stands open and a full
  // socket is waited out.
  const bool credit_gated = options_.flow_control;
  double stalled_since = -1;
  while (channel_.is_open()) {  // a dead transport's frames wait for resume
    if (tx_cursor_ == 0) {
      if (replay_from_ != kNoReplay) apply_replay();
      // Seqs neither the ring nor the log holds (an eviction with no log,
      // retention) are skipped: the receiver reports the gap.
      const std::uint64_t ring_next = ring_first();
      if (next_transmit_seq_ < ring_next && !log_covers(next_transmit_seq_))
        next_transmit_seq_ = log_covers(ring_next - 1) ? log_->first_seq()
                                                       : ring_next;
      // Caught up with the log: an idle session holds no segment image.
      if (log_cursor_ && next_transmit_seq_ >= ring_next) log_cursor_.reset();
    }
    // The batch: a part-written frame first (any other byte before its
    // tail corrupts the framing), then credit-exempt control frames, then
    // data in seq order as far as the peer's credit reaches.
    flush_slices_.clear();
    readback_.clear();
    std::uint64_t next = ring_tx_;  // the next ring slot to take
    std::uint64_t owed = next_transmit_seq_;  // next data seq for the wire
    std::size_t inflight = ring_bytes_ - queued_bytes_;
    std::size_t controls = 0, data = 0;
    // Starved past the credit reach; byte-starved past the window, where
    // one frame rides a quiet wire and replayed ones, in flight before,
    // never wait on themselves.
    const auto admits = [&](std::uint64_t seq, std::size_t size) {
      return !credit_gated ||
             (seq <= credit_seq_limit_ &&
              (inflight == 0 || seq < replay_until_ ||
               inflight + size <= credit_bytes_window_));
    };
    // Appends the frame of seq `owed`, less the `skip` bytes already on
    // the wire: the ring slot that holds it, else the log's record read
    // straight from the cursor's image. False when it has to wait. A
    // part-written frame passes every gate: its head is on the wire.
    const auto take = [&](std::size_t skip) {
      if (next < ring_end_ && ring_at(next).first == owed) {
        const OutFrame& frame = ring_at(next);
        if (skip == 0 && !is_notice(frame.wire) &&  // notices are exempt
            (!admits(frame.seq, frame.wire.size()) ||
             // Unacked frames stay in memory: cap them against an
             // ack-less peer.
             (credit_gated &&
              next - ring_head_ >= options_.replay_buffer_records) ||
             announce_again(frame.format_id, frame.seq)))
          return false;
        flush_slices_.push_back(
            {frame.wire.data() + skip, frame.wire.size() - skip});
        owed = is_notice(frame.wire) ? std::max(owed, frame.seq + 1)
                                     : frame.seq + 1;
        inflight += frame.wire.size();
        ++next;
        return true;
      }
      if (skip == 0 && (!log_covers(owed) || !admits(owed, 0) ||
                        readback_.size() == kReadBackBatch))
        return false;
      if (readback_.empty()) {
        readback_.reserve(kReadBackBatch);
        if (!log_cursor_ || log_cursor_->next_seq() != owed)
          log_cursor_.emplace(log_->read_from(owed));
      } else if (log_cursor_->next_seq() != owed ||
                 !log_cursor_->buffered()) {
        return false;  // reading on would replace the batch's image
      }
      ReadBack& back = readback_.emplace_back();
      const Result<bool> more = log_cursor_->next(&back.item);
      if (!more.is_ok()) {
        // An unreadable log loses what it held: the wire moves on to what
        // memory holds, and the receiver reports the gap.
        readback_.pop_back();
        durable_error_ = more.status();
        log_cursor_.reset();
        if (owed == next_transmit_seq_) next_transmit_seq_ = ring_first();
        return false;
      }
      const std::size_t size = kRecordWireHead + back.item.payload.size();
      if (skip == 0 && (!admits(owed, size) ||
                        announce_again(back.item.format_id, owed))) {
        log_cursor_->rewind(back.item);
        readback_.pop_back();
        return false;
      }
      put_record_head(back.head, owed, size);
      if (skip < kRecordWireHead)
        flush_slices_.push_back({back.head + skip, kRecordWireHead - skip});
      skip = skip > kRecordWireHead ? skip - kRecordWireHead : 0;
      flush_slices_.push_back({back.item.payload.data() + skip,
                               back.item.payload.size() - skip});
      ++owed;
      inflight += size;
      return true;
    };
    const bool cut = tx_cursor_ > 0;
    if (cut) take(tx_cursor_);
    std::size_t skip = control_cursor_;
    for (const std::vector<std::uint8_t>& wire : control_queue_) {
      flush_slices_.push_back({wire.data() + skip, wire.size() - skip});
      skip = 0;
      ++controls;
    }
    // Data waits for the peer's resume, and a replay for the cut frame.
    if (!resume_pending_ && replay_from_ == kNoReplay)
      while (take(0)) ++data;
    if (flush_slices_.empty()) {
      if (control_queue_.empty()) return Status::ok();
      continue;  // a replayed record's announcement goes first
    }

    std::size_t written = 0;
    Status sent = channel_.send_frames(flush_slices_, written);
    // Retire every frame now wholly on the wire, in batch order; park the
    // cursor in the one the socket cut short. The owed frame's source is
    // the one the batch took it from.
    std::size_t back = 0;  // read-back frames retired
    const auto finished = [&](std::size_t size, std::size_t& cursor) {
      const std::size_t left = size - cursor;
      if (written < left) {
        cursor += written;
        written = 0;
        return false;
      }
      written -= left;
      cursor = 0;
      return true;
    };
    const auto retire_owed = [&] {
      const bool ring = ring_owes();
      const bool notice = ring && is_notice(ring_at(ring_tx_).wire);
      if (!finished(ring ? ring_at(ring_tx_).wire.size()
                         : kRecordWireHead + readback_[back].item.payload.size(),
                    tx_cursor_))
        return false;
      if (next_transmit_seq_ < replay_until_ && !notice) ++replayed_records_;
      if (ring) {
        retire_tx();
      } else {
        ++next_transmit_seq_;
        ++back;
      }
      return true;
    };
    bool whole = !cut || retire_owed();
    for (; whole && controls > 0; --controls)
      if ((whole = finished(control_queue_.front().size(), control_cursor_)))
        control_queue_.pop_front();
    for (; whole && data > 0; --data) whole = retire_owed();
    // Read-back frames not wholly written are read again next time.
    if (back < readback_.size()) log_cursor_->rewind(readback_[back].item);
    if (sent.is_ok()) continue;
    if (sent.code() == ErrorCode::kUnavailable) {
      if (credit_gated) return Status::ok();
      // Wait for the socket, bounded like a blocking channel send: a peer
      // that stops reading for the whole send deadline is dead.
      const double now = clock_.elapsed_ms();
      if (stalled_since < 0) stalled_since = now;
      const int deadline = channel_.send_deadline_ms();
      const int left =
          deadline < 0 ? -1
                       : deadline - static_cast<int>(now - stalled_since);
      if (deadline < 0 || left > 0) {
        channel_.poll_writable(left);
        continue;
      }
      // A frame is cut mid-wire: the stream cannot be re-framed.
      channel_.close();
      sent = Status(ErrorCode::kTimeout,
                    "channel send deadline elapsed (peer not reading)");
    }
    // A closed transport is lost. One whose writes fail but which still
    // reads (a peer that spoke last and half-closed) stays open for the
    // receive path to drain; the send path's policy decides the rest.
    if (!channel_.is_open()) note_transport_lost();
    return sent;
  }
  return Status::ok();
}

void MessageSession::retire_tx() {
  const OutFrame& frame = ring_at(ring_tx_++);
  const bool notice = is_notice(frame.wire);
  if (frame.seq >= replay_until_) {  // it leaves the send queue
    queued_bytes_ -= frame.wire.size();
    data_queue_records_ -= notice ? 0 : 1;
  }
  next_transmit_seq_ =
      notice ? std::max(next_transmit_seq_, frame.seq + 1) : frame.seq + 1;
}

bool MessageSession::poll_control() {
  if (!options_.flow_control || !channel_.is_open()) return false;
  last_poll_ms_ = coarse_now_ms();
  const std::size_t before = channel_.bytes_received();
  std::size_t bound = SIZE_MAX;
  (void)checked_add(options_.receive_window_bytes, limits_.max_message_bytes,
                    &bound);
  const bool open =
      channel_.sweep(bound, [this](std::span<const std::uint8_t> frame) {
        if (frame.empty() || (frame[0] != kTagPing && frame[0] != kTagPong &&
                              frame[0] != kTagCredit))
          return false;
        std::optional<IncomingView> none;
        (void)on_frame(frame[0], frame.subspan(1), none);
        return true;
      });
  if (channel_.bytes_received() != before) last_inbound_ms_ = last_poll_ms_;
  if (!open && resumable_) note_transport_lost();
  return open;
}

// Milliseconds on the coarse monotonic clock, which ticks every few ms and
// costs a few ns to read, against tens of ns for the precise one: cheap
// enough for a check on every send and a stamp on every inbound frame,
// fine enough for heartbeat intervals and the liveness deadline.
double MessageSession::coarse_now_ms() {
  timespec now{};
  ::clock_gettime(CLOCK_MONOTONIC_COARSE, &now);
  return static_cast<double>(now.tv_sec) * 1e3 +
         static_cast<double>(now.tv_nsec) / 1e6;
}

bool MessageSession::record_would_wait(std::size_t frame_bytes) const {
  // The pump's gates for a fresh record (seq next_seq_ at ring_end_). A
  // frame part-written or queued ahead of it leaves next_transmit_seq_
  // behind next_seq_, and so does a seq the log still owes.
  const std::size_t inflight = ring_bytes_ - queued_bytes_;
  return next_transmit_seq_ != next_seq_ || !control_queue_.empty() ||
         replay_from_ != kNoReplay || resume_pending_ ||
         next_seq_ > credit_seq_limit_ ||
         (inflight > 0 && inflight + frame_bytes > credit_bytes_window_) ||
         ring_end_ - ring_head_ >= options_.replay_buffer_records;
}

bool MessageSession::queue_over_watermark(std::size_t incoming_bytes) const {
  const double watermark =
      std::clamp(options_.send_queue_watermark, 0.01, 1.0);
  const auto record_limit = static_cast<std::size_t>(
      static_cast<double>(options_.send_queue_records) * watermark);
  const auto byte_limit = static_cast<std::size_t>(
      static_cast<double>(options_.send_queue_bytes) * watermark);
  return data_queue_records_ + 1 > std::max<std::size_t>(record_limit, 1) ||
         queued_bytes_ + incoming_bytes >
             std::max<std::size_t>(byte_limit, 1);
}

Status MessageSession::admit_record(std::size_t frame_bytes) {
  if (!options_.flow_control) {
    // Nothing refuses a record here: a resumable session makes room in its
    // bounded replay window by evicting from the front. Evicted frames are
    // simply no longer replayable — a resume past them surfaces kDataLoss
    // at the receiver, once. With a durable log the eviction is harmless
    // (the disk covers the seq); an eviction *without* that cover is
    // silent data-at-risk, so it is counted and warned about once.
    while (resumable_ && ring_end_ > ring_head_ &&
           (ring_end_ - ring_head_ + 1 > options_.replay_buffer_records ||
            ring_bytes_ + frame_bytes > options_.replay_buffer_bytes)) {
      if (ring_head_ == ring_tx_) retire_tx();  // evicted before it went out
      OutFrame& victim = ring_at(ring_head_++);
      free_slot(victim);
      if (victim.seq <= peer_acked_seq_ || log_covers(victim.seq)) continue;
      ++evicted_records_;
      if (!eviction_logged_) {
        eviction_logged_ = true;
        std::fprintf(stderr,
                     "xmit session %" PRIu64
                     ": replay buffer evicted unacked record seq %" PRIu64
                     " with no durable log to recover it; a resume past "
                     "this point will surface kDataLoss\n",
                     session_id_, victim.seq);
      }
    }
    return Status::ok();
  }
  const auto over = [&] {
    return queue_over_watermark(frame_bytes) || ring_full(frame_bytes);
  };
  // A read costs a recv that almost always finds nothing. It matters only
  // when the record would wait on what this end already holds (a grant or
  // an ack in the socket may be what it waits for), before a policy acts
  // on the queue, and once per heartbeat interval, so that pings are
  // answered and acks free the ring however long a send streak runs.
  if (over() || record_would_wait(frame_bytes) ||
      coarse_now_ms() - last_poll_ms_ >= options_.heartbeat_interval_ms) {
    poll_control();
    (void)pump_send_queue();
  }
  if (!over()) return Status::ok();
  switch (options_.slow_consumer) {
    case SlowConsumerPolicy::kBlockWithDeadline: {
      Stopwatch wait;
      for (;;) {
        const bool reading = poll_control();
        (void)pump_send_queue();
        if (!over()) {
          send_block_ms_ += wait.elapsed_ms();
          return Status::ok();
        }
        if (closed_) return Status(ErrorCode::kIoError, "session closed");
        if (resumable_) {
          install_pending_attach();
          if (!channel_.is_open() && active()) {
            Status ready = ready_to_send();
            if (!ready.is_ok()) {
              send_block_ms_ += wait.elapsed_ms();
              return ready;
            }
          }
        }
        maybe_ping();
        if (liveness_stale()) {
          // Dead, not slow: nothing inbound for a whole liveness window
          // while we were starved for credit.
          send_block_ms_ += wait.elapsed_ms();
          return Status(ErrorCode::kTimeout,
                        "peer silent past the liveness deadline");
        }
        if (wait.elapsed_ms() >= options_.send_block_deadline_ms) {
          send_block_ms_ += wait.elapsed_ms();
          return Status(ErrorCode::kResourceExhausted,
                        "send queue full: peer credit could not drain it "
                        "within the block deadline (slow consumer)");
        }
        if (reading)
          channel_.poll_readable(1);
        else
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    case SlowConsumerPolicy::kSpillToLog: {
      if (!durable_ || !durable_error_.is_ok())
        return Status(ErrorCode::kResourceExhausted,
                      "send queue full and kSpillToLog has no healthy "
                      "durable log to fall back on");
      spill_queue();
      (void)pump_send_queue();
      return Status::ok();
    }
    case SlowConsumerPolicy::kShedOldest: {
      shed_queue();
      (void)pump_send_queue();
      // Shedding frees only queued records: one whose unacked in-flight
      // frames alone fill the replay bound still cannot take more.
      if (ring_full(frame_bytes))
        return Status(ErrorCode::kResourceExhausted,
                      "replay buffer full of unacked records that no "
                      "durable log covers");
      return Status::ok();
    }
    case SlowConsumerPolicy::kDisconnect: {
      // Every queued frame leaves the send queue: the resume owes it again
      // (no other session sends again).
      note_transport_lost();
      replay_until_ = next_seq_;
      queued_bytes_ = 0;
      data_queue_records_ = 0;
      return Status(ErrorCode::kResourceExhausted,
                    "send queue hit its watermark; policy kDisconnect "
                    "dropped the transport");
    }
  }
  return Status::ok();
}

void MessageSession::spill_queue() {
  // Every unstarted queued frame is covered by the write-ahead log, so
  // memory can let go of all of them: the ring is a cache, the log is the
  // truth. The pump reads the gap back from the log as credit returns.
  const std::uint64_t from = queue_start();
  for (std::uint64_t i = from; i < ring_end_; ++i) {
    queued_bytes_ -= ring_at(i).wire.size();
    free_slot(ring_at(i));
  }
  records_spilled_ += ring_end_ - from;
  data_queue_records_ -= ring_end_ - from;
  ring_end_ = from;
}

void MessageSession::shed_queue() {
  // Oldest-first: freshest data wins (the telemetry shape). Drop down to
  // half the watermark so the policy does not re-fire on every send, and
  // name every dropped range to the peer in a 0x09 notice that takes the
  // run's place in the ring, so it precedes every surviving later record
  // (and replays with them on a resume).
  const double watermark =
      std::clamp(options_.send_queue_watermark, 0.01, 1.0);
  const auto record_target = static_cast<std::size_t>(
      static_cast<double>(options_.send_queue_records) * watermark / 2);
  const auto byte_target = static_cast<std::size_t>(
      static_cast<double>(options_.send_queue_bytes) * watermark / 2);
  const auto over = [&] {
    return data_queue_records_ > record_target || queued_bytes_ > byte_target;
  };
  std::uint64_t i = queue_start();
  for (; over() && i < ring_end_; ++i) {
    if (is_notice(ring_at(i).wire)) continue;
    const std::uint64_t first = ring_at(i).seq;
    std::uint64_t last = first;
    std::uint64_t end = i;
    for (; over() && end < ring_end_; ++end) {
      OutFrame& victim = ring_at(end);
      if (is_notice(victim.wire) || victim.seq > last + 1) break;
      last = victim.seq;
      ++records_shed_;
      --data_queue_records_;
      queued_bytes_ -= victim.wire.size();
      free_slot(victim);
    }
    append_shed_sidecar(first, last);
    std::vector<std::uint8_t>& notice = ring_at(i).wire;
    notice.resize(kLenBytes + 1 + kShedPayloadBytes);
    store_with_order<std::uint32_t>(
        notice.data(), std::uint32_t{1 + kShedPayloadBytes}, ByteOrder::kLittle);
    notice[kLenBytes] = kTagShed;
    store_with_order<std::uint64_t>(notice.data() + kLenBytes + 1, first,
                                    ByteOrder::kLittle);
    store_with_order<std::uint64_t>(notice.data() + kLenBytes + 9, last,
                                    ByteOrder::kLittle);
    ring_at(i).seq = last;  // transmitting it advances the owed seq past
    ring_at(i).format_id = 0;
    ring_bytes_ += notice.size();
    queued_bytes_ += notice.size();
    // Close the run's other slots up behind the notice.
    for (std::uint64_t k = i + 1; k + (end - i - 1) < ring_end_; ++k)
      std::swap(ring_at(k), ring_at(k + (end - i - 1)));
    ring_end_ -= end - i - 1;
  }
}

void MessageSession::append_shed_sidecar(std::uint64_t first,
                                         std::uint64_t last) {
  if (!durable_) return;
  std::FILE* sidecar =
      std::fopen((options_.durable_dir + "/shed.log").c_str(), "ae");
  if (sidecar == nullptr) return;
  std::fprintf(sidecar, "%" PRIu64 " %" PRIu64 "\n", first, last);
  std::fclose(sidecar);
}

Status MessageSession::queue_record(pbio::FormatId format_id,
                                    std::span<IoSlice> slices) {
  if (!resumable_ && !channel_.is_open())
    return Status(ErrorCode::kIoError, "channel is closed");
  const std::span<const IoSlice> payload = slices.subspan(1);
  std::size_t wire_bytes = kRecordWireHead;
  for (const IoSlice& slice : payload) wire_bytes += slice.size;
  // Admission precedes sequencing and the WAL: a rejected send consumes
  // no sequence number and leaves no log hole to misread as loss.
  XMIT_RETURN_IF_ERROR(admit_record(wire_bytes));
  const std::uint64_t seq = next_seq_++;
  // Write-ahead: the record must be durable before it is transmitted — a
  // send the log refused never reaches the wire.
  XMIT_RETURN_IF_ERROR(append_durable(seq, format_id, payload));
  ++records_sent_;
  if (!keeps_frames()) {
    // Nothing is queued ahead of it, so the frame goes straight from the
    // caller's slices in one sendmsg: no copy, for records of any size.
    // A plain session gets a failed write's error as it is.
    std::uint8_t head[1 + kSeqBytes];
    head[0] = kTagRecord;
    store_with_order<std::uint64_t>(head + 1, seq, ByteOrder::kLittle);
    slices[0] = IoSlice{head, sizeof(head)};
    return channel_.send_gather(slices);
  }
  // While a spill is outstanding the log is the queue: a record whose
  // predecessors wait in the log waits there too, and no slot moves.
  if (options_.slow_consumer == SlowConsumerPolicy::kSpillToLog && durable_ &&
      next_transmit_seq_ < seq &&
      (ring_end_ == ring_head_ || ring_at(ring_end_ - 1).seq + 1 < seq)) {
    ++records_spilled_;
  } else {
    // One copy into a recycled ring slot, as the whole wire frame.
    OutFrame& slot = ring_push();
    slot.seq = slot.first = seq;
    slot.format_id = format_id;
    slot.wire.resize(wire_bytes);
    put_record_head(slot.wire.data(), seq, wire_bytes);
    std::uint8_t* out = slot.wire.data() + kRecordWireHead;
    for (const IoSlice& s : payload) {
      if (s.size > 0) std::memcpy(out, s.data, s.size);
      out += s.size;
    }
    ring_bytes_ += wire_bytes;
    ++data_queue_records_;
    queued_bytes_ += wire_bytes;
    send_queue_depth_peak_ =
        std::max(send_queue_depth_peak_, data_queue_records_);
    send_queue_bytes_peak_ = std::max(send_queue_bytes_peak_, queued_bytes_);
  }
  return settle_send(pump_send_queue());
}

Status MessageSession::settle_send(Status written) {
  if (written.is_ok() || !resumable_) return written;
  note_transport_lost();
  // Liveness blind spot, closed: a send that blew the channel's bounded
  // send deadline means the peer stopped reading for a whole liveness
  // window. If nothing arrived inbound either, the peer is dead, not
  // slow — surface the same verdict a silent receive would have.
  if (written.code() == ErrorCode::kTimeout && liveness_stale())
    return Status(ErrorCode::kTimeout,
                  "peer silent past the liveness deadline (send blocked "
                  "past it with nothing inbound)");
  if (active()) return reconnect(options_.liveness_deadline_ms);
  return Status::ok();  // queued in the ring until the peer resumes
}

Status MessageSession::announce(const pbio::Format& format) {
  // An active session's reconnect un-marks formats the peer may have
  // lost, so the loop announces again on the fresh transport.
  while (!announced_.contains(format.id())) {
    XMIT_RETURN_IF_ERROR(ready_to_send());
    // Schema-ahead-of-data: the catalog entry is fsynced before any
    // record encoded with the format can reach the log or the wire, so
    // a restart can always re-announce what it replays.
    XMIT_RETURN_IF_ERROR(catalog_put(format));
    announced_.insert(format.id());
    announce_seq_[format.id()] = next_seq_;
    // Passive and disconnected: the resume path re-announces anything
    // past the peer's ack, so recording the intent is enough.
    if (!channel_.is_open()) return Status::ok();
    // The control queue puts the announcement ahead of every record that
    // needs it (data waits on credit; control does not), without
    // disturbing a partial frame mid-wire.
    queue_announcement(format);
    XMIT_RETURN_IF_ERROR(settle_send(pump_send_queue()));
  }
  return Status::ok();
}

Status MessageSession::send(const pbio::Encoder& encoder, const void* record) {
  XMIT_RETURN_IF_ERROR(ready_to_send());
  XMIT_RETURN_IF_ERROR(announce(encoder.format()));
  // Gather path: the encoder emits slices over pooled scratch, and the
  // frame head rides as the first slice — no flattened copy, and no
  // allocation once the pools are warm.
  XMIT_RETURN_IF_ERROR(
      encoder.encode_iov(record, send_scratch_, send_slices_));
  send_slices_.insert(send_slices_.begin(), IoSlice{});
  return queue_record(encoder.format().id(), send_slices_);
}

Status MessageSession::send_encoded(const pbio::Format& format,
                                    std::span<const std::uint8_t> record) {
  XMIT_RETURN_IF_ERROR(ready_to_send());
  XMIT_RETURN_IF_ERROR(announce(format));
  IoSlice slices[2] = {{}, {record.data(), record.size()}};
  return queue_record(format.id(), slices);
}

Result<MessageSession::Incoming> MessageSession::receive(int timeout_ms) {
  XMIT_ASSIGN_OR_RETURN(auto view, receive_view(timeout_ms));
  return Incoming{{view.bytes.begin(), view.bytes.end()},
                  std::move(view.sender_format)};
}

Result<MessageSession::IncomingView> MessageSession::receive_view(
    int timeout_ms) {
  if (poisoned_)
    return Status(ErrorCode::kResourceExhausted,
                  "session poisoned: peer exceeded the malformed-frame budget");
  if (closed_) return Status(ErrorCode::kIoError, "session closed");
  double deadline = -1;  // on clock_, from when the socket first runs dry
  const auto remaining = [&] {  // whole ms
    const double now = clock_.elapsed_ms();
    if (deadline < 0) deadline = now + timeout_ms;
    return static_cast<int>(std::ceil(std::max(deadline - now, 0.0)));
  };
  for (;;) {
    if (resumable_) install_pending_attach();
    if (!channel_.is_open()) {
      if (!resumable_) return Status(ErrorCode::kIoError, "channel is closed");
      XMIT_RETURN_IF_ERROR(await_transport(remaining()));
      continue;
    }
    // A fresh receiver seeds the peer's credit before anything else can
    // arrive — without this first grant a flow-controlled sender with no
    // handshake in its life would starve forever.
    if (options_.flow_control && credit_grants_sent_ == 0)
      maybe_grant(/*force=*/true);
    std::span<const std::uint8_t> frame;
    Status failed;
    if (channel_.next_frame(frame, failed, limits_.max_message_bytes)) {
      last_inbound_ms_ = coarse_now_ms();
      if (frame.empty())
        return note_malformed(
            Status(ErrorCode::kParseError, "empty session frame"));
      std::optional<IncomingView> delivered;
      XMIT_RETURN_IF_ERROR(on_frame(frame[0], frame.subspan(1), delivered));
      if (delivered) return *std::move(delivered);
      continue;
    }
    if (!failed.is_ok()) {
      if (resumable_ && (failed.code() == ErrorCode::kNotFound ||
                         failed.code() == ErrorCode::kIoError)) {
        // Clean close and death mid-frame are both just a transport loss
        // for a resumable session: reconnect/await and keep receiving.
        note_transport_lost();
        continue;
      }
      if (failed.code() == ErrorCode::kResourceExhausted)
        return note_malformed(failed);  // length prefix over the size limit
      return failed;
    }
    // The socket is dry: keep our own queue moving, then wait for it. A
    // session that keeps frames wakes to heartbeat and to notice a blown
    // liveness deadline even when the caller's budget is generous.
    (void)pump_send_queue();
    if (!channel_.is_open()) continue;
    int wait = remaining();
    if (keeps_frames())
      wait = std::min({wait, options_.heartbeat_interval_ms,
                       static_cast<int>(options_.liveness_deadline_ms -
                                        (coarse_now_ms() - last_inbound_ms_))});
    if (channel_.poll_readable(std::max(wait, 0))) continue;
    if (keeps_frames() && liveness_stale())
      return Status(ErrorCode::kTimeout,
                    "peer silent past the liveness deadline");
    if (remaining() <= 0)  // a short message: idle pulls allocate nothing
      return Status(ErrorCode::kTimeout, "receive timeout");
    maybe_ping();
  }
}

Status MessageSession::on_frame(std::uint8_t tag,
                                std::span<const std::uint8_t> payload,
                                std::optional<IncomingView>& delivered) {
  switch (tag) {
    case kTagFormat: {
      auto format = pbio::deserialize_format(payload, limits_);
      if (!format.is_ok()) {
        // A truncated in-band announcement (peer died mid-write) must
        // not poison the session — report and keep the stream usable.
        return note_malformed(format.status());
      }
      XMIT_ASSIGN_OR_RETURN(auto adopted,
                            registry_->adopt(std::move(format).value()));
      // What the peer announced, we need not re-announce to them.
      announced_.insert(adopted->id());
      // A fresh, well-formed announcement vouches for the format again.
      quarantined_.erase(adopted->id());
      ++announcements_received_;
      return Status::ok();
    }
    case kTagRecord: {
      if (payload.size() < kSeqBytes)
        return note_malformed(
            Status(ErrorCode::kParseError,
                   "record frame too short for its sequence number"));
      const std::uint64_t seq = load_with_order<std::uint64_t>(
          payload.data(), ByteOrder::kLittle);
      const std::span<const std::uint8_t> record =
          payload.subspan(kSeqBytes);
      if (seq <= last_seq_received_) {
        // An at-least-once replay we already delivered: drop silently.
        ++duplicates_discarded_;
        return Status::ok();
      }
      if (seq > last_seq_received_ + 1) {
        const std::uint64_t lost = seq - last_seq_received_ - 1;
        last_seq_received_ = seq;  // adopt: report each gap exactly once
        return Status(ErrorCode::kDataLoss,
                      std::to_string(lost) +
                          " record(s) lost in a sequence gap the peer's "
                          "replay buffer could not cover");
      }
      last_seq_received_ = seq;
      // Quarantine check runs on the raw header, before the (costlier)
      // structural inspection a hostile record would fail anyway.
      auto header = pbio::parse_header(record);
      if (header.is_ok() &&
          quarantined_.contains(header.value().format_id)) {
        return note_malformed(Status(
            ErrorCode::kMalformedInput,
            "record claims quarantined format id; re-announce to clear"));
      }
      auto info = decoder_->inspect(record);
      if (!info.is_ok()) {
        // Affirmatively hostile bytes (internal contradictions, blown
        // budgets) poison trust in that format id until the peer
        // re-announces it. Mere truncation — a peer dying mid-write, a
        // lossy channel — does not: the next intact record must decode.
        if (header.is_ok() &&
            (info.code() == ErrorCode::kMalformedInput ||
             info.code() == ErrorCode::kResourceExhausted)) {
          quarantined_.insert(header.value().format_id);
          drop_plan_pins_for(header.value().format_id);
        }
        return note_malformed(info.status());
      }
      // The record outlives the read buffer: a send may sweep it.
      recv_frame_.assign(record.begin(), record.end());
      delivered.emplace(
          IncomingView{recv_frame_, std::move(info.value().sender_format)});
      ++records_received_;
      maybe_grant(/*force=*/false);  // drained half a window? re-arm it
      return Status::ok();
    }
    case kTagHandshake: {
      Status st = process_handshake(payload);
      if (st.is_ok()) return Status::ok();
      // A disk that cannot persist the adopted identity is not the
      // peer's fault.
      if (st.code() == ErrorCode::kIoError) return st;
      return note_malformed(st);
    }
    case kTagPing:
    case kTagPong: {
      if (payload.size() != kSeqBytes)
        return note_malformed(
            Status(ErrorCode::kParseError, "bad ping/pong frame length"));
      Status st = absorb_ack(
          load_with_order<std::uint64_t>(payload.data(), ByteOrder::kLittle));
      if (!st.is_ok()) return note_malformed(st);
      if (tag == kTagPing) send_ack_frame(kTagPong);
      return Status::ok();
    }
    case kTagCredit: {
      Status st = process_credit(payload);
      if (!st.is_ok()) return note_malformed(st);
      (void)pump_send_queue();  // fresh credit may unblock queued data now
      return Status::ok();
    }
    case kTagDurableRange: {
      if (payload.size() != kDurableRangePayloadBytes)
        return note_malformed(Status(ErrorCode::kParseError,
                                     "bad durable-range frame length"));
      const std::uint64_t first = load_with_order<std::uint64_t>(
          payload.data(), ByteOrder::kLittle);
      const std::uint64_t last = load_with_order<std::uint64_t>(
          payload.data() + 8, ByteOrder::kLittle);
      if (first == 0 || last < first)
        return note_malformed(Status(
            ErrorCode::kMalformedInput,
            "durable-range advert [" + std::to_string(first) + ", " +
                std::to_string(last) + "] is not a valid range"));
      peer_durable_first_ = first;
      peer_durable_last_ = last;
      return Status::ok();
    }
    case kTagReplayRequest: {
      if (payload.size() != kSeqBytes)
        return note_malformed(Status(ErrorCode::kParseError,
                                     "bad replay-request frame length"));
      const std::uint64_t from = load_with_order<std::uint64_t>(
          payload.data(), ByteOrder::kLittle);
      if (from == 0)
        return note_malformed(Status(ErrorCode::kMalformedInput,
                                     "replay request from sequence 0"));
      // Only a durable sender can honor history; anyone else ignores
      // the request (the requester learns nothing arrived and moves
      // on) rather than guessing at records it no longer has.
      if (!durable_ || log_ == nullptr || log_->empty()) return Status::ok();
      // The requester may be a brand-new subscriber that never saw
      // our format announcements: forget what *we* announced so the
      // stream re-sends every schema ahead of its data. Re-announcing
      // to a peer that already knows a format is an idempotent no-op
      // on its side.
      for (const auto& [fid, seq] : announce_seq_) announced_.erase(fid);
      replay_from_ =
          std::min(replay_from_, std::max(from, log_->first_seq()));
      // Under flow control the requester's credit paces the replay; a
      // failed write is left to the next read.
      (void)pump_send_queue();
      return Status::ok();
    }
    case kTagShed: {
      Status st = process_shed(payload);
      if (st.is_ok()) {
        // The dedup window jumped; the drained count may owe a grant.
        maybe_grant(/*force=*/false);
        return Status::ok();
      }
      if (st.code() == ErrorCode::kDataLoss) return st;
      return note_malformed(st);
    }
    default:
      return note_malformed(Status(
          ErrorCode::kParseError,
          "unknown session frame tag " + std::to_string(tag)));
  }
}

void MessageSession::pin_batch_plan(const pbio::FormatPtr& sender,
                                    const pbio::Format& receiver) {
  if (!sender) return;
  auto key = std::make_pair(sender->id(), receiver.id());
  if (plan_pins_.contains(key)) return;
  auto pin = decoder_->pin_plan(sender, receiver);
  if (pin.is_ok())
    plan_pins_.emplace(key, std::move(pin).value());
  else
    ++plan_pin_failures_;  // degraded, not broken: the plan rebuilds
}

void MessageSession::drop_plan_pins_for(pbio::FormatId sender_id) {
  for (auto it = plan_pins_.begin(); it != plan_pins_.end();) {
    if (it->first.first == sender_id)
      it = plan_pins_.erase(it);
    else
      ++it;
  }
}

Result<std::size_t> MessageSession::receive_batch(const pbio::Format& receiver,
                                                  void* out, std::size_t stride,
                                                  std::size_t max_records,
                                                  int timeout_ms) {
  if (max_records == 0)
    return Status(ErrorCode::kInvalidArgument, "receive_batch of 0 records");
  if (!batch_decoder_) {
    batch_decoder_ = std::make_unique<pbio::BatchDecoder>(
        *decoder_, options_.batch_decode_workers == 0
                       ? 1
                       : options_.batch_decode_workers);
  }
  if (batch_records_.size() < max_records) batch_records_.resize(max_records);
  batch_spans_.clear();

  // The first record is worth the caller's whole budget; everything after
  // it is pure drain — take only what the transport already holds.
  while (batch_spans_.size() < max_records) {
    auto more = receive_view(batch_spans_.empty() ? timeout_ms : 0);
    if (!more.is_ok()) {
      const ErrorCode code = more.status().code();
      // Drain exhausted (or the peer went away mid-drain): decode what we
      // have; a close/liveness condition resurfaces on the next call.
      if (batch_spans_.empty() ||
          (code != ErrorCode::kTimeout && code != ErrorCode::kNotFound &&
           code != ErrorCode::kIoError))
        return more.status();
      break;
    }
    pin_batch_plan(more.value().sender_format, receiver);
    std::vector<std::uint8_t>& slot = batch_records_[batch_spans_.size()];
    slot.assign(more.value().bytes.begin(), more.value().bytes.end());
    batch_spans_.emplace_back(slot.data(), slot.size());
  }

  XMIT_RETURN_IF_ERROR(batch_decoder_->decode_batch(
      std::span<const std::span<const std::uint8_t>>(batch_spans_.data(),
                                                     batch_spans_.size()),
      receiver, out, stride));
  return batch_spans_.size();
}

Result<SessionPair> make_session_pipe(pbio::FormatRegistry& registry_a,
                                      pbio::FormatRegistry& registry_b) {
  XMIT_ASSIGN_OR_RETURN(auto pipe, net::Channel::pipe());
  return SessionPair{MessageSession(std::move(pipe.first), registry_a),
                     MessageSession(std::move(pipe.second), registry_b)};
}

Result<SessionPair> make_session_pipe(pbio::FormatRegistry& registry_a,
                                      pbio::FormatRegistry& registry_b,
                                      SessionOptions options) {
  XMIT_ASSIGN_OR_RETURN(auto pipe, net::Channel::pipe());
  return SessionPair{
      MessageSession(std::move(pipe.first), registry_a, options),
      MessageSession(std::move(pipe.second), registry_b, options)};
}

Result<TcpSessionPair> make_session_tcp(pbio::FormatRegistry& registry_a,
                                        pbio::FormatRegistry& registry_b,
                                        SessionOptions options) {
  options.resumable = true;
  XMIT_ASSIGN_OR_RETURN(auto listener, net::ChannelListener::listen(0));
  MessageSession a(net::Endpoint::tcp("127.0.0.1", listener.port()),
                   registry_a, options);
  XMIT_RETURN_IF_ERROR(a.connect_now());
  XMIT_ASSIGN_OR_RETURN(auto accepted, listener.accept(5000));
  MessageSession b(std::move(accepted), registry_b, options);
  return TcpSessionPair{std::move(listener), std::move(a), std::move(b)};
}

}  // namespace xmit::session
