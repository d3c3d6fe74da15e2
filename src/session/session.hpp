// MessageSession: a PBIO connection with in-band metadata.
//
// The paper's cost model (§4.2): "Small 'startup' overheads are incurred
// only during 'connection establishment', that is, each time an
// XMIT-based exchange is initiated and/or the structure of the data
// exchanged is modified", after which "PBIO-based communications can
// continue as if normal PBIO metadata were being used".
//
// MessageSession implements exactly that discipline over a Channel: the
// first time a format is sent on a session, its serialized metadata
// travels in-band ahead of the record (and again if an *evolved* format
// with the same name but a new id appears — the "structure modified"
// case). The receiver adopts announced formats into its registry
// transparently, so the peer needs no schema document, no HTTP fetch and
// no compiled-in tables — the connection is self-describing, like a PBIO
// data file but live.
//
// Resumable sessions extend the same cost discipline to *recovery*: when
// the transport dies, a session holding a net::Endpoint re-dials (with
// retry/backoff), proves continuity with a handshake frame, and replays
// only the frames the receiver never acknowledged — including the format
// announcements the receiver lost, and nothing more. Delivery is
// at-least-once on the wire; receiver-side sequence dedup makes it
// effectively exactly-once for the caller. Quarantine, poison and limits
// state all survive a reconnect: a hostile peer cannot launder its
// reputation by dropping the connection.
//
// Frame format: [1-byte tag | payload]
//   tag 0x01  format announcement (pbio/format_wire serialization)
//   tag 0x02  data record: [u64 LE sequence number | PBIO wire record]
//   tag 0x03  handshake: [u8 flags | u64 session id | u32 epoch |
//             u64 last-seq-received]; flags bit0 = initiate (a reply is
//             requested); all other flag bits must be zero
//   tag 0x04  ping: [u64 last-seq-received]   (liveness probe + ack)
//   tag 0x05  pong: [u64 last-seq-received]   (probe answer + ack)
//   tag 0x06  durable range advert: [u64 first-seq | u64 last-seq] — a
//             durable sender, after each handshake, names the inclusive
//             range its on-disk log can replay on request
//   tag 0x07  replay request: [u64 from-seq] — ask a durable peer to
//             re-send history from `from-seq` (clamped to its log) as
//             ordinary tag-0x02 frames with their original sequence
//             numbers; a non-durable peer ignores the request. A
//             flow-controlled sender paces the replay by the requester's
//             credit, like any other data
//   tag 0x08  credit grant: [u64 last-seq-received | u64 window-records |
//             u64 window-bytes] — a flow-controlled receiver's drain
//             budget. The ack piggybacks replay trimming; the windows
//             extend the sender's transmit allowance to
//             ack + window-records (cumulative, monotone) and cap unacked
//             in-flight payload bytes. Zero windows, absurd windows
//             (> 2^48), wrapping reach and reach rollback are hostile and
//             draw down the malformed-frame budget — an honest receiver
//             pauses a sender by *withholding* grants, never by granting
//             zero.
//   tag 0x09  shed notice: [u64 first-seq | u64 last-seq] — an overloaded
//             sender running SlowConsumerPolicy::kShedOldest names the
//             inclusive seq range it dropped, in-stream and in order, so
//             the receiver's dedup window advances without a phantom
//             kDataLoss gap and shed accounting stays exact on both ends.
//
// Durable sessions (SessionOptions::durable_dir) extend resumability
// past process death: every outgoing record is appended to an fsynced
// write-ahead RecordLog *before* transmission, every announced format is
// persisted to a FormatCatalog, and the (session id, epoch) identity
// lives in an atomically-replaced meta file. A restarted sender reopens
// the directory, recovers its identity, formats and full send history,
// and resumes the same session — the receiver sees a normal epoch bump
// followed by an at-least-once replay its dedup already handles.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "common/bytes.hpp"
#include "common/cache.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/limits.hpp"
#include "net/channel.hpp"
#include "net/endpoint.hpp"
#include "net/retry.hpp"
#include "pbio/batch.hpp"
#include "pbio/decode.hpp"
#include "pbio/encode.hpp"
#include "pbio/registry.hpp"
#include "storage/catalog.hpp"
#include "storage/log.hpp"

namespace xmit::session {

// What an overloaded sender does when its bounded send queue reaches the
// soft watermark and the peer's credit cannot drain it.
enum class SlowConsumerPolicy : std::uint8_t {
  // Wait (pumping the queue and processing inbound credit) up to
  // send_block_deadline_ms, then fail the send with kResourceExhausted.
  // A peer silent past the liveness deadline fails with kTimeout instead:
  // slow-but-alive and dead are distinct verdicts.
  kBlockWithDeadline = 0,
  // Durable sessions only: drop queued records from memory — the
  // write-ahead log already holds them ("the ring is a cache, the log is
  // the truth") — and stream them back from disk when credit returns.
  // Sender memory stays bounded; no acked or logged record is ever lost.
  kSpillToLog,
  // Drop the oldest untransmitted queued records and tell the receiver
  // exactly which seq range died via a tag-0x09 shed notice, so gap
  // reporting stays truthful. Freshest data wins (telemetry shape).
  kShedOldest,
  // Drop the transport. The resumption machinery (replay buffer, durable
  // log) owns recovery if the peer ever comes back.
  kDisconnect,
};

// Knobs for the resumption layer. The defaults suit tests and LAN use;
// production deployments tune the replay-buffer bound to their record
// rate times the longest outage they intend to ride out.
struct SessionOptions {
  bool resumable = false;       // keep a replay buffer; survive reconnects
  std::uint64_t session_id = 0; // 0 = generated (active) / adopted (passive)
  std::size_t replay_buffer_records = 256;          // unacked frames kept
  std::size_t replay_buffer_bytes = 4u << 20;       // and their byte bound
  int heartbeat_interval_ms = 500;   // ping cadence while receive is idle
  int liveness_deadline_ms = 5000;   // silent/unreachable peer => kTimeout
  net::RetryPolicy reconnect_backoff;  // dial policy for each reconnect

  // Durability: a non-empty directory turns the session durable (which
  // implies resumable). Outgoing records are write-ahead logged there —
  // appended and fsynced per `durable_fsync` *before* transmission — and
  // announced formats plus the session identity persist beside them, so
  // a restarted process resumes the same session from disk.
  std::string durable_dir;
  storage::FsyncPolicy durable_fsync = storage::FsyncPolicy::kAlways;
  std::uint64_t durable_segment_bytes = 8u << 20;
  std::size_t durable_retention_segments = 0;  // 0 = keep everything
  // Flow control: sends enqueue into a bounded per-session queue drained
  // against tag-0x08 credit via nonblocking writes — a send never blocks
  // indefinitely on a slow peer. Both ends of a session should enable it
  // (a flow-controlled sender facing a peer that never grants credit is,
  // by definition, facing the zero-credit persona and applies its
  // SlowConsumerPolicy).
  bool flow_control = false;
  SlowConsumerPolicy slow_consumer = SlowConsumerPolicy::kBlockWithDeadline;
  std::size_t send_queue_records = 256;      // hard queue bound (records)
  std::size_t send_queue_bytes = 4u << 20;   // and its byte bound
  double send_queue_watermark = 0.75;        // policy fires at this fill
  int send_block_deadline_ms = 2000;         // kBlockWithDeadline wait
  // Receiver side: the drain budget each 0x08 grant advertises.
  std::size_t receive_window_records = 128;
  std::size_t receive_window_bytes = 2u << 20;
  // receive_batch(): worker threads for parallel decode of the drained
  // records (DESIGN.md §5i). 0 or 1 decodes inline on the caller thread;
  // the pool is spawned lazily on the first receive_batch() call.
  std::size_t batch_decode_workers = 0;
  // Budget for the decoder's conversion-plan cache (DESIGN.md §5k).
  // Default unbounded. The session pins the plan of every (sender,
  // receiver) pair it batch-decodes, so a registration storm elsewhere in
  // the process can never evict a live session's decode path; a pin the
  // budget cannot honour is counted (plan_pin_failures()) and the pair
  // simply rebuilds its plan under pressure instead.
  CacheBudget plan_cache_budget;
};

class MessageSession {
 public:
  // The session shares `registry`: announcements from the peer are
  // adopted into it; outgoing formats are announced from it.
  MessageSession(net::Channel channel, pbio::FormatRegistry& registry);

  // Passive resumable flavour: runs over `channel` until it dies, then
  // waits (bounded by the liveness deadline) for a replacement to arrive
  // via attach() — the acceptor side of a reconnecting pair.
  MessageSession(net::Channel channel, pbio::FormatRegistry& registry,
                 SessionOptions options);

  // Active resumable flavour: dials `endpoint` on first use and re-dials
  // it whenever the transport dies. Always resumable.
  MessageSession(net::Endpoint endpoint, pbio::FormatRegistry& registry,
                 SessionOptions options = {});

  MessageSession(MessageSession&&) = default;

  // Active sessions: dial now instead of lazily on first send/receive.
  // Sends the initiate handshake; the peer's acceptor should accept and
  // wrap (or attach) the resulting channel.
  Status connect_now();

  // Hands a passive resumable session its replacement transport after a
  // drop. Thread-safe: listener/accept loops call this from any thread;
  // the session installs the channel at its next send/receive.
  void attach(net::Channel replacement);

  // Marshals `record` and sends it, announcing the encoder's format first
  // if this session has not carried it yet. Gather I/O over pooled scratch:
  // after the first few sends of a format the steady state copies only the
  // header (plus the slot-patched fixed section for var-bearing formats)
  // and performs no heap allocation. A plain session writes the frame
  // straight from those slices and returns once it is in the kernel.
  // Resumable and flow-controlled sessions copy the frame once, into a
  // recycled slot of the outgoing ring, where it stays until the peer
  // acks it; the ring's pump writes it — without flow control before
  // send() returns, with it as the peer's credit allows.
  Status send(const pbio::Encoder& encoder, const void* record);

  // Sends an already-encoded record belonging to `format`.
  Status send_encoded(const pbio::Format& format,
                      std::span<const std::uint8_t> record);

  // Pre-announce a format without sending data (e.g. at startup, so the
  // receiver can bind before the first record arrives).
  Status announce(const pbio::Format& format);

  struct Incoming {
    std::vector<std::uint8_t> bytes;  // a complete PBIO wire record
    pbio::FormatPtr sender_format;
  };

  // Borrowed variant of Incoming: the record stays in the session's pooled
  // record buffer until the next receive call on this session; sends,
  // even ones that read the socket for credit, leave it alone. Pair with
  // an Arena the caller rewind()s between records for allocation-free
  // steady-state decode.
  struct IncomingView {
    std::span<const std::uint8_t> bytes;  // a complete PBIO wire record
    pbio::FormatPtr sender_format;
  };

  // Next data record; format announcements, handshakes and ping/pong are
  // consumed transparently. kNotFound = peer closed cleanly (non-resumable
  // only), kTimeout = deadline elapsed, kDataLoss = a sequence gap the
  // peer's replay buffer could not cover (reported once per gap). A
  // deadline that expires mid-frame keeps the partial frame for the next
  // call. Truncated or corrupted frames (a peer dying mid-record) surface
  // as clean kParseError/kOutOfRange statuses, and a length prefix over
  // limits().max_message_bytes as kResourceExhausted before any buffer
  // grows — the session object stays usable and counts them in
  // malformed_frames().
  //
  // Resumable sessions do not surface transport deaths at all: the loop
  // reconnects (active) or waits for attach() (passive) and keeps
  // receiving; only a peer silent/unreachable past the liveness deadline
  // surfaces, as kTimeout.
  //
  // Two defenses against a *hostile* peer, not just a dying one:
  //  - A format whose records fail structural inspection is quarantined:
  //    further records claiming that format id fail fast (kMalformedInput)
  //    without re-parsing, until a fresh announcement of the id clears it.
  //  - Each malformed frame draws down a per-peer budget
  //    (limits().max_malformed_frames); once exhausted the session is
  //    poisoned and every later receive() fails with kResourceExhausted.
  Result<Incoming> receive(int timeout_ms = 10000);

  // receive() without the copy into a fresh vector: a record is copied
  // once, into a pooled buffer whose capacity persists across calls, so
  // once warmed the receive path allocates nothing. Same semantics.
  Result<IncomingView> receive_view(int timeout_ms = 10000);

  // Batched receive-and-decode (DESIGN.md §5i): waits up to `timeout_ms`
  // for the first data record, then greedily drains records the transport
  // already has queued — without further waiting — up to `max_records`,
  // and decodes the whole batch against `receiver` across the
  // options_.batch_decode_workers pool. Record i lands at
  // `out + i * stride` (stride >= receiver.struct_size()); out-of-line
  // strings/arrays live in the batch arenas and stay valid until the next
  // receive_batch() call. Returns the number of records decoded (>= 1; a
  // timeout before the first record surfaces as kTimeout). A peer close
  // or liveness failure mid-drain stops the drain and delivers what
  // already arrived; the next call reports the condition.
  Result<std::size_t> receive_batch(const pbio::Format& receiver, void* out,
                                    std::size_t stride,
                                    std::size_t max_records,
                                    int timeout_ms = 10000);

  // Asks a durable peer to re-send its logged history from `from_seq`
  // (inclusive; clamped to the peer's durable range). The replayed
  // records arrive through receive() in order with their original
  // sequence numbers; the local dedup window is rewound so they are not
  // mistaken for a gap. A non-durable peer silently ignores the request.
  Status request_replay(std::uint64_t from_seq);

  // Per-peer decode budgets; forwarded to the record decoder and applied
  // to announcement parsing and frame sizes.
  void set_limits(const DecodeLimits& limits);
  const DecodeLimits& limits() const { return limits_; }

  void close() {
    closed_ = true;
    channel_.close();
  }

  // The live transport (test seam: chaos harnesses arm failures on it).
  net::Channel& channel() { return channel_; }
  const net::Channel& channel() const { return channel_; }

  // Diagnostics for the amortization bench: how many metadata frames this
  // session sent/received versus data records — and, for resumable
  // sessions, how much recovery work the resumption layer performed.
  std::size_t announcements_sent() const { return announcements_sent_; }
  std::size_t announcements_received() const { return announcements_received_; }
  std::size_t records_sent() const { return records_sent_; }
  std::size_t records_received() const { return records_received_; }
  std::size_t metadata_bytes_sent() const { return metadata_bytes_sent_; }
  std::size_t malformed_frames() const { return malformed_frames_; }
  std::size_t reconnects() const { return reconnects_; }
  std::size_t replayed_records() const { return replayed_records_; }
  std::size_t duplicates_discarded() const { return duplicates_discarded_; }
  std::size_t transport_losses() const { return transport_losses_; }
  std::uint64_t session_id() const { return session_id_; }
  std::uint32_t epoch() const { return epoch_; }
  bool poisoned() const { return poisoned_; }
  // Unacked records silently pushed out of the bounded replay buffer
  // with no durable-log copy to fall back on — each one is a record a
  // future resume cannot recover. Only sessions without flow control
  // evict: a flow-controlled one applies its SlowConsumerPolicy at the
  // bound instead.
  std::size_t evicted_records() const { return evicted_records_; }
  bool durable() const { return durable_; }
  // Why durability is unavailable (open/append/fsync failure); OK while
  // the write-ahead path is healthy.
  Status durable_status() const { return durable_error_; }
  // The local log's replayable range; 0/0 when empty or not durable.
  std::uint64_t durable_first_seq() const {
    return log_ ? log_->first_seq() : 0;
  }
  std::uint64_t durable_last_seq() const {
    return log_ ? log_->last_seq() : 0;
  }
  // The peer's advertised durable range (tag 0x06); 0/0 until heard.
  std::uint64_t peer_durable_first() const { return peer_durable_first_; }
  std::uint64_t peer_durable_last() const { return peer_durable_last_; }
  bool is_quarantined(pbio::FormatId id) const {
    return quarantined_.contains(id);
  }
  // Conversion plans pinned on behalf of this session's live (sender,
  // receiver) pairs; pins survive resume/replay and drop on quarantine.
  std::size_t plan_pins_held() const { return plan_pins_.size(); }
  // Pin attempts the plan-cache budget refused (kResourceExhausted).
  // Non-fatal: the pair still decodes, rebuilding its plan on demand.
  std::size_t plan_pin_failures() const { return plan_pin_failures_; }
  CacheStats plan_cache_stats() const { return decoder_->plan_cache_stats(); }

  // --- flow-control diagnostics ---------------------------------------
  bool flow_controlled() const { return options_.flow_control; }
  // Credit grants this end sent (receiver role) / absorbed (sender role).
  std::size_t credit_grants_sent() const { return credit_grants_sent_; }
  std::size_t credit_grants_received() const {
    return credit_grants_received_;
  }
  // Records the peer's cumulative credit still lets us put on the wire.
  std::uint64_t credit_records_available() const {
    return credit_seq_limit_ >= next_transmit_seq_
               ? credit_seq_limit_ - next_transmit_seq_ + 1
               : 0;
  }
  std::uint64_t credit_seq_limit() const { return credit_seq_limit_; }
  std::size_t send_queue_depth() const { return data_queue_records_; }
  std::size_t send_queue_bytes_now() const { return queued_bytes_; }
  // High-water marks since the session started: the bounded-memory proof.
  std::size_t send_queue_depth_peak() const { return send_queue_depth_peak_; }
  std::size_t send_queue_bytes_peak() const { return send_queue_bytes_peak_; }
  // Records left to the durable log instead of memory (kSpillToLog) —
  // none of them is lost; the pump reads them back.
  std::size_t records_spilled() const { return records_spilled_; }
  // Records dropped for good under kShedOldest, each one named to the
  // peer in a tag-0x09 notice.
  std::size_t records_shed() const { return records_shed_; }
  // Records the *peer* told us it shed (sum of 0x09 ranges received).
  std::uint64_t peer_shed_records() const { return peer_shed_records_; }
  // Total time sends spent blocked waiting for queue room or credit.
  double send_block_ms() const { return send_block_ms_; }

 private:
  // One slot of the outgoing ring: a record frame, or the tag-0x09
  // notice that took the place of a shed run. `wire` is the frame exactly
  // as it goes on the wire — [u32 len | 0x02 | u64 seq | payload] — and
  // keeps its capacity when the slot is reused.
  struct OutFrame {
    std::uint64_t seq = 0;  // data seq; for a shed notice, the range end
    std::uint64_t first = 0;  // seq; for a shed notice, the range start
    pbio::FormatId format_id = 0;  // 0 for a shed notice
    std::vector<std::uint8_t> wire;
  };

  // A record the pump gathers straight from the log cursor's segment
  // image, behind the wire head it needs: [u32 len | 0x02 | u64 seq].
  struct ReadBack {
    storage::RecordLog::Item item;
    std::uint8_t head[4 + 1 + 8];
  };

  // Replacement transports arrive from other threads; heap-pinned so the
  // session object itself stays movable.
  struct AttachSlot {
    std::mutex mutex;
    std::optional<net::Channel> pending;
  };

  // Counts a hostile/corrupt frame against the per-peer budget; returns
  // the (possibly upgraded) status to hand the caller.
  Status note_malformed(Status status);

  // Pin the (sender, receiver) conversion plan on first batch use so
  // cache pressure cannot evict a live pair mid-session; budget refusals
  // are counted, never fatal.
  void pin_batch_plan(const pbio::FormatPtr& sender,
                      const pbio::Format& receiver);
  // Quarantining a sender format releases its pins — a poisoned format's
  // plans are fair game for eviction.
  void drop_plan_pins_for(pbio::FormatId sender_id);

  // --- resumption machinery -------------------------------------------
  bool active() const { return endpoint_.can_dial(); }
  void install_pending_attach();
  void note_transport_lost();
  // Installs any attached channel; active sessions with a dead transport
  // reconnect here. Passive sessions return OK even when disconnected —
  // their sends buffer into the replay queue until the peer resumes.
  Status ready_to_send();
  // Blocks (bounded by budget_ms and the liveness deadline) until a
  // transport is live again: redials for active sessions, waits for
  // attach() for passive ones.
  Status await_transport(int budget_ms);
  Status reconnect(int budget_ms);
  // Our side of a resume on a fresh transport: queues the 0x03 handshake
  // (an initiate asks for a reply) and a durable log's 0x06 advert, owes
  // the peer every frame past its ack again, and forgets announcements
  // the ack does not cover, so each goes out again ahead of the first
  // replayed record that needs it.
  void resume(bool initiate);
  Status process_handshake(std::span<const std::uint8_t> payload);
  // Validates and absorbs a peer ack (their last-seq-received): trims the
  // replay buffer and advances peer_acked_seq_.
  Status absorb_ack(std::uint64_t last_seq);
  // Owes the wire every seq from replay_from_ on again (never forward).
  void apply_replay();
  void maybe_ping();
  // Queues [tag | last_seq_received_] on the control lane: a heartbeat
  // ping or the pong that answers one.
  void send_ack_frame(std::uint8_t tag);
  // --- the outgoing ring ----------------------------------------------
  OutFrame& ring_at(std::uint64_t index) {
    return ring_[index & (ring_.size() - 1)];
  }
  // Opens a slot at ring_end_, doubling the ring when it is full.
  OutFrame& ring_push();
  // Lets go of a slot's frame; its buffer stays for reuse only up to an
  // equal share of the byte bounds, so big records cannot pin every slot.
  void free_slot(OutFrame& slot);
  // Resumable sessions keep each frame until the peer acks it (replay),
  // flow-controlled ones too (the byte-credit ledger). Any other session
  // has nothing queued between calls, so its records skip the ring.
  bool keeps_frames() const { return resumable_ || options_.flow_control; }
  // Frees transmitted slots the peer's ack covers.
  void release_acked();
  // The first seq the ring will send next; the seqs owed before it
  // come from the log.
  std::uint64_t ring_first() {
    return ring_tx_ < ring_end_ ? ring_at(ring_tx_).first : next_seq_;
  }
  bool ring_owes() {
    return ring_tx_ < ring_end_ && ring_first() == next_transmit_seq_;
  }
  // The first slot of the send queue: past the transmit index, any frame
  // cut mid-wire and any frame a replay owes again.
  std::uint64_t queue_start() {
    std::uint64_t i = ring_tx_ + (tx_cursor_ > 0 && ring_owes());
    while (i < ring_end_ && ring_at(i).seq < replay_until_) ++i;
    return i;
  }
  bool log_covers(std::uint64_t seq) const {
    return durable_ && log_ != nullptr && !log_->empty() &&
           seq >= log_->first_seq() && seq <= log_->last_seq();
  }
  // Every mode's send tail: admission, sequencing, WAL, then the ring and
  // its pump. slices[0] is free for the [tag | seq] head of a session
  // that keeps no frames, which writes the record from the slices.
  Status queue_record(pbio::FormatId format_id, std::span<IoSlice> slices);
  // The transport-failure policy for a failed send-path write: plain
  // sessions get the error; resumable ones lose the transport, then get
  // the liveness kTimeout, reconnect (active) or keep it queued (passive).
  Status settle_send(Status written);

  // --- flow-control machinery -----------------------------------------
  // Validates and applies a peer 0x08 credit grant. Order: length, zero
  // windows, absurd windows, u64 reach wrap, reach rollback, then the
  // ack itself — hostile values never touch credit state.
  Status process_credit(std::span<const std::uint8_t> payload);
  // Validates a peer 0x09 shed notice and advances the dedup window.
  // Returns kDataLoss only for records lost *silently* before the range.
  Status process_shed(std::span<const std::uint8_t> payload);
  // Receiver role: advertise [last_seq_received_, windows] when forced
  // (handshake, ping) or when half the window has drained since the last
  // grant.
  void maybe_grant(bool force);
  // Queues a credit-exempt control frame (handshakes, durable adverts,
  // announcements, heartbeats, grants, replay requests) for the pump.
  // Droppable ones (heartbeats, grants) are skipped when the control
  // queue is full, because a fresher copy always follows; returns false
  // then.
  bool queue_control(std::span<const std::uint8_t> frame, bool droppable);
  void queue_announcement(const pbio::Format& format);
  // Queues format `id` ahead of record `seq` when a replay owes the seq
  // and the peer may lack the format; true when it queued one (the record
  // waits for the next batch, which the announcement heads).
  bool announce_again(pbio::FormatId id, std::uint64_t seq);
  // The one writer of every session that keeps frames: a part-written
  // frame, the control queue, then data in seq order, each seq from the
  // ring slot that holds it, else from the log cursor's image, in gather
  // writes (Channel::send_frames). Under flow control credit gates the
  // data and a would-block parks the cut frame at its cursor; without it
  // the pump writes everything, waiting out a full socket under the
  // channel's send deadline. Data waits while resume_pending_. Returns
  // the write failure (a closed transport is noted lost), else OK.
  Status pump_send_queue();
  // The frame at the transmit index is wholly on the wire.
  void retire_tx();
  // The one handler of inbound frames, for receive_view and poll_control.
  // A record is copied into recv_frame_ and named in `delivered`; other
  // frames are applied in place, read in full before anything that can
  // write to or close the channel. Malformed frames are already counted.
  Status on_frame(std::uint8_t tag, std::span<const std::uint8_t> payload,
                  std::optional<IncomingView>& delivered);
  // Send-path inbound sweep: takes ping, pong and credit frames (they may
  // be handled out of order) and leaves the rest, in order, for
  // receive_view, holding at most what an honest peer can send ahead of a
  // grant: our receive window and one frame. The stream's end is a lost
  // transport for a resumable session (the resume replays what was held),
  // else left for receive_view. False once nothing more can arrive.
  bool poll_control();
  // Admission control, run BEFORE a sequence number is assigned or the
  // WAL appends: applies the SlowConsumerPolicy at the soft watermark so
  // a rejected send consumes no seq and leaves no log hole. Under flow
  // control it reads inbound (poll_control, then the pump) only when the
  // record would wait (record_would_wait), when the queue is over its
  // watermark or the ring is full (before any policy acts), or when a
  // heartbeat interval has passed since the last read. Otherwise the
  // record goes to the WAL, the ring and the pump with no recv, so a send
  // never returns with its frame parked behind credit it has not read.
  Status admit_record(std::size_t frame_bytes);
  // True when a fresh record of `frame_bytes` could not go straight to
  // the wire on the state this end already holds: anything owed ahead of
  // it (queued, part-written, control or log frames, a replay), a resume
  // not yet heard, or the credit reach, byte window or in-flight cap.
  bool record_would_wait(std::size_t frame_bytes) const;
  bool queue_over_watermark(std::size_t incoming_bytes) const;
  // A non-durable resumable session holds every unacked record until its
  // ack, so at the replay bound its SlowConsumerPolicy fires: no silent
  // eviction of a record nothing else covers.
  bool ring_full(std::size_t incoming_bytes) const {
    return resumable_ && !durable_ &&
           (ring_end_ - ring_head_ + 1 > options_.replay_buffer_records ||
            ring_bytes_ + incoming_bytes > options_.replay_buffer_bytes);
  }
  // kSpillToLog: drop queued, unstarted data frames — the WAL holds them;
  // the pump reads them back through the log cursor as credit returns.
  void spill_queue();
  // kShedOldest: drop the oldest unstarted data frames, each run replaced
  // in position by the tag-0x09 notice that names it, and count them.
  void shed_queue();
  // Durable sheds leave an auditable trace beside the log segments.
  void append_shed_sidecar(std::uint64_t first, std::uint64_t last);
  // Queued control frames and partial-write cursors belong to one
  // transport: the resume re-announces formats and re-grants credit on
  // the next, and data frames retransmit whole.
  void drop_transport_queue();
  bool liveness_stale() const {
    return coarse_now_ms() - last_inbound_ms_ >= options_.liveness_deadline_ms;
  }
  static double coarse_now_ms();  // CLOCK_MONOTONIC_COARSE, in ms
  // Arms the channel-level send deadline on every transport this session
  // adopts, so a blocked send can never outlive the liveness deadline.
  void configure_transport();

  // --- durability machinery -------------------------------------------
  // Opens log + catalog + meta under options_.durable_dir; failures land
  // in durable_error_ (constructors cannot fail) and surface on first
  // send/announce/connect.
  void init_durability();
  // Atomically persists (session id, epoch); called before any handshake
  // that presents a changed identity.
  Status persist_meta();
  // Write-ahead step of send: appends the record to the log (slices
  // exclude the 9-byte tag+seq head — seq and format id live in the
  // frame header). Fails, and keeps failing, once the log is poisoned.
  Status append_durable(std::uint64_t seq, pbio::FormatId format_id,
                        std::span<const IoSlice> slices);
  // Persists a format to the catalog (no-op when not durable / known).
  Status catalog_put(const pbio::Format& format);

  net::Channel channel_;
  net::Endpoint endpoint_;  // non-dialable for passive/plain sessions
  pbio::FormatRegistry* registry_;
  std::unique_ptr<pbio::Decoder> decoder_;  // Decoder holds a mutex: heap-pin it
  std::unique_ptr<pbio::BatchDecoder> batch_decoder_;  // lazy; receive_batch
  // receive_batch() staging, reused so steady-state batches allocate
  // nothing once buffer capacities have grown.
  std::vector<std::vector<std::uint8_t>> batch_records_;
  std::vector<std::span<const std::uint8_t>> batch_spans_;
  std::unique_ptr<AttachSlot> attach_slot_;
  SessionOptions options_;
  bool resumable_ = false;
  bool closed_ = false;
  DecodeLimits limits_ = DecodeLimits::defaults();
  std::set<pbio::FormatId> announced_;
  std::set<pbio::FormatId> quarantined_;
  // Held plan pins, keyed (sender id, receiver id). Declared after
  // decoder_: pins release into the decoder's cache on destruction, so
  // they must die first (members destroy in reverse declaration order).
  std::map<std::pair<pbio::FormatId, pbio::FormatId>, pbio::Decoder::PlanPin>
      plan_pins_;
  std::size_t plan_pin_failures_ = 0;
  // next_seq_ at the moment each format was announced by *us*: if the
  // peer's ack is below this, the announcement itself may be lost and the
  // format must be re-announced on resume. Peer-announced formats never
  // appear here and are never un-announced.
  std::map<pbio::FormatId, std::uint64_t> announce_seq_;
  // Pooled I/O state: capacity persists across messages (zero steady-state
  // allocations), contents are per-call.
  ByteBuffer send_scratch_;
  std::vector<IoSlice> send_slices_;
  std::vector<std::uint8_t> recv_frame_;
  // Send-side sequencing.
  std::uint64_t next_seq_ = 1;
  std::uint64_t peer_acked_seq_ = 0;
  // The outgoing ring, for sessions that keep frames: accepted record
  // frames, copied once, appended in sequence order. Slots
  // [ring_head_, ring_tx_) are on the wire awaiting the peer's ack (the
  // replay buffer and the byte-credit ledger); [ring_tx_, ring_end_) wait
  // for the pump — for credit, for the peer's resume, or for a transport.
  // Seqs it does not hold (evicted, spilled) come from the log. Indices
  // are absolute; ring_.size() is a power of two.
  std::vector<OutFrame> ring_;
  std::uint64_t ring_head_ = 0;
  std::uint64_t ring_tx_ = 0;
  std::uint64_t ring_end_ = 0;
  std::size_t ring_bytes_ = 0;    // wire bytes of every slot held
  // The send queue: slots never yet sent, waiting for credit.
  std::size_t queued_bytes_ = 0;
  std::size_t data_queue_records_ = 0;
  std::size_t tx_cursor_ = 0;  // bytes of the owed frame already written
  std::vector<IoSlice> flush_slices_;  // the pump's batch; capacity reused
  // The one log cursor, for every read-back: resume replay, replay
  // requests, spill. Open across pump calls while the log owes the wire.
  std::optional<storage::RecordLog::Cursor> log_cursor_;
  // The batch's read-back frames; slices point into them, so the
  // capacity is reserved once and never outgrown.
  std::vector<ReadBack> readback_;
  // A replay waits for a cut frame to finish; kNoReplay when none does.
  static constexpr std::uint64_t kNoReplay = ~std::uint64_t{0};
  std::uint64_t replay_from_ = kNoReplay;
  // Seqs below this were owed again by the last replay: they count as
  // replayed, not as queued, pass the byte-credit gate, and each one's
  // format is announced again if need be.
  std::uint64_t replay_until_ = 0;
  // Receive-side dedup state.
  std::uint64_t last_seq_received_ = 0;
  // Identity and liveness.
  std::uint64_t session_id_ = 0;
  std::uint32_t epoch_ = 0;
  Stopwatch clock_;
  double last_ping_ms_ = -1e18;
  // On the coarse monotonic clock: when a frame last arrived, and when
  // poll_control last read inbound.
  double last_inbound_ms_ = 0;
  double last_poll_ms_ = 0;
  double transport_lost_ms_ = -1;  // <0: transport never lost yet
  bool poisoned_ = false;
  // Durability state. The log and catalog are heap-pinned (like the
  // decoder) so the session object stays movable.
  bool durable_ = false;
  std::unique_ptr<storage::RecordLog> log_;
  std::unique_ptr<storage::FormatCatalog> catalog_;
  Status durable_error_;
  std::size_t evicted_records_ = 0;
  bool eviction_logged_ = false;
  std::uint64_t peer_durable_first_ = 0;
  std::uint64_t peer_durable_last_ = 0;
  // A passive session attached to a fresh transport sends no data until
  // the peer's resume handshake has said where the replay starts.
  bool resume_pending_ = false;
  // The control queue holds credit-exempt wire frames that may safely go
  // out ahead of queued data. At most one frame, control or data, is
  // partially written at any time. Flow-control state follows.
  std::deque<std::vector<std::uint8_t>> control_queue_;
  std::size_t control_cursor_ = 0;  // bytes of its front already written
  std::uint64_t next_transmit_seq_ = 1;  // next data seq owed to the wire
  std::uint64_t credit_seq_limit_ = 0;   // cumulative transmit allowance
  std::uint64_t credit_bytes_window_ = 0;
  std::uint64_t last_grant_ack_ = 0;  // receiver: ack in our last grant
  std::size_t credit_grants_sent_ = 0;
  std::size_t credit_grants_received_ = 0;
  std::size_t send_queue_depth_peak_ = 0;
  std::size_t send_queue_bytes_peak_ = 0;
  std::size_t records_spilled_ = 0;
  std::size_t records_shed_ = 0;
  std::uint64_t peer_shed_records_ = 0;
  double send_block_ms_ = 0;
  std::size_t announcements_sent_ = 0;
  std::size_t announcements_received_ = 0;
  std::size_t records_sent_ = 0;
  std::size_t records_received_ = 0;
  std::size_t metadata_bytes_sent_ = 0;
  std::size_t malformed_frames_ = 0;
  std::size_t reconnects_ = 0;
  std::size_t replayed_records_ = 0;
  std::size_t duplicates_discarded_ = 0;
  std::size_t transport_losses_ = 0;
};

// Convenience: a connected session pair over a socketpair, sharing
// *separate* registries (as two processes would).
struct SessionPair {
  MessageSession a;
  MessageSession b;
};
Result<SessionPair> make_session_pipe(pbio::FormatRegistry& registry_a,
                                      pbio::FormatRegistry& registry_b);
// Same, with options applied to both ends (e.g. a flow-controlled pair).
Result<SessionPair> make_session_pipe(pbio::FormatRegistry& registry_a,
                                      pbio::FormatRegistry& registry_b,
                                      SessionOptions options);

// Convenience: a connected resumable session pair over real TCP —
// `a` actively dials the bundled listener, `b` is the accepted passive
// side. The listener rides along so recovery tests can re-accept after a
// kill and attach() the replacement to `b`.
struct TcpSessionPair {
  net::ChannelListener listener;
  MessageSession a;
  MessageSession b;
};
Result<TcpSessionPair> make_session_tcp(pbio::FormatRegistry& registry_a,
                                        pbio::FormatRegistry& registry_b,
                                        SessionOptions options = {});

}  // namespace xmit::session
