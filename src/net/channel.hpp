// Channel: the message transport the application components talk over.
//
// Length-prefixed byte messages (u32 little-endian frame header) over a
// stream socket. Two flavours share the class: connected TCP channels
// (Hydrology components across processes, latency benches) and socketpair
// pipes (components co-resident in one process). PBIO records pass
// through whole — the channel is payload-agnostic, exactly like the
// transport layer beneath a BCM.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"

struct iovec;

namespace xmit::net {

// Test seam for the chaos harness: a channel can be armed to die after a
// byte budget, modelling a peer crash (kill: already-written bytes stay in
// the kernel buffer and drain to the receiver before EOF) or an abortive
// close (reset: SO_LINGER{1,0} turns close() into an RST that may destroy
// in-flight data too). kNone is the production state.
enum class InjectedFailure : std::uint8_t {
  kNone = 0,
  kKillAfterBytes,   // send budget bytes (headers included), then close
  kResetAfterBytes,  // as above, but close abortively (TCP RST)
};

class Channel {
 public:
  // Largest frame any channel sends or accepts (1 GiB).
  static constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 30;

  Channel() = default;
  ~Channel();
  Channel(Channel&& other) noexcept;
  Channel& operator=(Channel&& other) noexcept;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // Bidirectional in-process pair (AF_UNIX socketpair).
  static Result<std::pair<Channel, Channel>> pipe();

  // TCP client connection to `host`:`port` (numeric address or name,
  // resolved IPv4). A connect that does not complete within timeout_ms
  // yields kTimeout; refusal is kIoError.
  static Result<Channel> connect(const std::string& host, std::uint16_t port,
                                 int timeout_ms = 5000);

  // Back-compat convenience: loopback connect.
  static Result<Channel> connect(std::uint16_t port, int timeout_ms = 5000) {
    return connect("127.0.0.1", port, timeout_ms);
  }

  bool is_open() const { return fd_ >= 0; }

  Status send(std::span<const std::uint8_t> message);
  Status send(const std::vector<std::uint8_t>& message) {
    return send(std::span<const std::uint8_t>(message));
  }

  // Nonblocking write of whole frames already in wire form: each slice is
  // one [u32 LE length | body] frame, a piece of one, or the unwritten
  // tail of one. The channel follows the frames' length prefixes across
  // slices and calls, so messages_sent() counts each frame once, when its
  // last byte goes out, however many pieces it was given in. As many
  // slices as one iovec array holds (128) leave in one sendmsg.
  // `cursor` counts the batch's bytes already on the wire; callers start
  // it at 0 and pass the same batch and cursor back until it completes, so
  // a would-block leaves at most one frame part-written. Returns OK when
  // every byte is out, kUnavailable when the socket would block, and
  // kIoError / kTimeout on a dead transport. A frame abandoned mid-cursor
  // leaves the stream unframeable: the only safe next step is close().
  // An armed failure cuts the batch at its exact byte.
  Status send_frames(std::span<const IoSlice> frames, std::size_t& cursor);

  // True when a send of at least one byte would not block (POLLOUT within
  // timeout_ms; 0 = poll-and-return).
  bool poll_writable(int timeout_ms);

  // Bounds every blocking send path: a send that cannot place its bytes
  // within `deadline_ms` fails with kTimeout and closes the channel (the
  // frame is partially written — the stream cannot be re-synchronized).
  // Negative restores the unbounded default. This is the liveness fix for
  // senders wedged in a blocking send toward a peer that stopped reading.
  void set_send_deadline(int deadline_ms) {
    send_deadline_ms_ = deadline_ms < 0 ? -1 : deadline_ms;
  }
  int send_deadline_ms() const { return send_deadline_ms_; }

  // Sends one frame whose payload is the concatenation of `slices`
  // (sendmsg gather I/O) — the wire bytes are identical to send() of the
  // flattened message, but nothing is copied into an intermediate buffer
  // and nothing is heap-allocated, for any slice count.
  Status send_gather(std::span<const IoSlice> slices);

  // The receive calls below cut frames from one owned read buffer, filled
  // by one nonblocking recv with as many frames as the socket holds, so
  // they may be mixed freely on one stream. A length prefix over
  // `max_frame_bytes` fails kResourceExhausted before any buffer grows,
  // and the refused body is dropped as it arrives: the stream stays framed.
  // The end of the stream (kNotFound when clean, else kIoError) comes only
  // after every whole frame received before it.

  // Blocks up to timeout_ms for the next complete frame and copies it out
  // (kTimeout keeps a partly received frame buffered for the next call).
  Result<std::vector<std::uint8_t>> receive(int timeout_ms = 5000);

  // Nonblocking: points `frame` at the next whole frame's body in the read
  // buffer, valid until the next receive, sweep or close (sends leave it
  // alone). False when more bytes are needed (`error` untouched, nothing
  // allocated) or when the stream failed (`error` set).
  bool next_frame(std::span<const std::uint8_t>& frame, Status& error,
                  std::size_t max_frame_bytes = kMaxFrameBytes);

  // Nonblocking sweep for a sender waiting on a frame that may sit behind
  // others it cannot consume yet (a credit grant behind the peer's data):
  // reads while fewer than `max_held` bytes are buffered, and offers
  // `take` each whole frame not offered before, in order. Frames `take`
  // returns true for are cut out; the rest stay, in order, for next_frame.
  // `take` may write to or close the channel, not read from it. The end
  // of the stream or a read error stops the sweep and is left for
  // next_frame; false then, or once the channel is closed.
  template <typename Take>
  bool sweep(std::size_t max_held, Take&& take) {
    std::span<const std::uint8_t> frame;
    while (offer(frame, max_held))
      if (take(frame) && fd_ >= 0) cut(frame);
    return fd_ >= 0 && read_end_ == 0;
  }

  // True when a whole frame the sweep has not offered is buffered, or when
  // a recv of at least one byte (or EOF) would not block within timeout_ms.
  bool poll_readable(int timeout_ms);

  void close();

  // Arms a deterministic failure: after `byte_budget` more outgoing bytes
  // (frame headers count — they are wire bytes) the channel sends the
  // prefix that fits, dies per `mode`, and the pending send returns
  // kIoError. Exactly how a peer crash at that byte looks from both ends.
  void arm_failure(InjectedFailure mode, std::size_t byte_budget) {
    failure_ = mode;
    failure_budget_ = byte_budget;
  }
  InjectedFailure armed_failure() const { return failure_; }

  // Inbound mirror of arm_failure: the channel pulls at most `byte_budget`
  // more bytes off the socket, after which a receive that needs more bytes
  // fails with kResourceExhausted. Read-ahead never runs past the budget,
  // so a reader persona that stops reading stops exactly there.
  void stall_reads_after(std::size_t byte_budget) {
    read_budget_ = byte_budget;
  }

  // Writes `bytes` as they are, with no frame header (routed through the
  // armed-failure seam like every send). Lets tests and fuzz drivers put
  // split, truncated or hostile wire images on the stream.
  Status send_raw(std::span<const std::uint8_t> bytes);

  // Frames fully sent, and the sendmsg calls that carried them (a batch
  // of frames can share one call).
  std::size_t messages_sent() const { return sent_; }
  std::size_t sendmsg_calls() const { return sendmsg_calls_; }
  std::size_t bytes_sent() const { return bytes_sent_; }
  // Bytes pulled off the socket so far, frame headers included, and the
  // recv calls that pulled them (a call that found nothing counts too).
  std::size_t bytes_received() const { return bytes_received_; }
  std::size_t recv_calls() const { return recv_calls_; }

 private:
  explicit Channel(int fd) : fd_(fd) {}
  friend class ChannelListener;

  // The sweep's steps: offer the next frame, cut out one just offered.
  bool offer(std::span<const std::uint8_t>& frame, std::size_t max_held);
  void cut(std::span<const std::uint8_t> frame);
  void drop_skipped();  // a refused frame's body, as soon as it arrives
  // Slides the held bytes to the front, doubles a full buffer (to at most
  // `want` bytes), and reads once, at most `most` bytes. Returns the bytes
  // read: 0 when the socket has none or the stream ended (read_end_ set).
  std::size_t fill(std::size_t want, std::size_t most);

  // Every send path's one gather write: sendmsg under `deadline_ms`
  // (a blown deadline closes the channel), with an armed failure applied
  // at its exact byte so byte budgets hold across frames and batches.
  Status write_iov(struct iovec* iov, std::size_t count, int deadline_ms,
                   std::size_t* progress = nullptr);
  // Advances the outbound framing over the batch bytes [from, to) that
  // send_frames wrote, counting each frame whose last byte is among them.
  void count_frames(std::span<const IoSlice> frames, std::size_t from,
                    std::size_t to);

  int fd_ = -1;
  std::size_t sent_ = 0;
  std::size_t sendmsg_calls_ = 0;
  std::size_t bytes_sent_ = 0;
  int send_deadline_ms_ = -1;  // <0: block indefinitely (legacy behaviour)
  InjectedFailure failure_ = InjectedFailure::kNone;
  std::size_t failure_budget_ = 0;
  std::size_t bytes_received_ = 0;
  std::size_t recv_calls_ = 0;
  std::size_t read_budget_ = static_cast<std::size_t>(-1);

  // Inbound read buffer: raw storage, never value-initialised. Bytes
  // [in_begin_, in_end_) are received but not yet taken, the first
  // in_offered_ of them frames the sweep left; in_skip_ counts body bytes
  // of a refused frame still to arrive, dropped as they do. read_end_ is
  // 0 while the stream is open, -1 after EOF, else the recv's errno.
  std::unique_ptr<std::uint8_t[]> in_;
  std::size_t in_cap_ = 0;
  std::size_t in_begin_ = 0;
  std::size_t in_end_ = 0;
  std::size_t in_offered_ = 0;
  std::size_t in_skip_ = 0;
  int read_end_ = 0;

  // Outbound framing of send_frames: bytes of the current frame's length
  // prefix seen so far, then the body bytes still to go. Zero between
  // frames; send_gather and send write whole frames and leave it there.
  std::size_t out_head_ = 0;
  std::size_t out_left_ = 0;
};

class ChannelListener {
 public:
  ~ChannelListener();
  ChannelListener(ChannelListener&& other) noexcept;
  ChannelListener& operator=(ChannelListener&& other) noexcept;
  ChannelListener(const ChannelListener&) = delete;
  ChannelListener& operator=(const ChannelListener&) = delete;

  // Listens on 127.0.0.1:`port` (0 picks a free port).
  static Result<ChannelListener> listen(std::uint16_t port = 0);

  std::uint16_t port() const { return port_; }

  Result<Channel> accept(int timeout_ms = 5000);

 private:
  explicit ChannelListener(int fd, std::uint16_t port)
      : fd_(fd), port_(port) {}

  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace xmit::net
