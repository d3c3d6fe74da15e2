#include "net/channel.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "common/endian.hpp"

namespace xmit::net {
namespace {

constexpr std::size_t kHeaderBytes = 4;
// First size of a channel's read buffer. It holds several small frames
// per recv and grows, only on demand, to fit the largest frame seen.
constexpr std::size_t kInitialReadBytes = 4 * 1024;

std::size_t frame_length(const std::uint8_t* header) {
  return load_with_order<std::uint32_t>(header, ByteOrder::kLittle);
}

// Waits for the socket to accept bytes, honouring an optional deadline.
// Returns kTimeout once `deadline_ms` (measured from `start`) is spent.
Status wait_writable(int fd, int deadline_ms,
                     const std::chrono::steady_clock::time_point& start) {
  int wait = -1;
  if (deadline_ms >= 0) {
    const auto spent = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    wait = static_cast<int>(std::max<long long>(deadline_ms - spent, 0));
    if (wait == 0)
      return make_error(ErrorCode::kTimeout,
                        "channel send deadline elapsed (peer not reading)");
  }
  struct pollfd pfd = {fd, POLLOUT, 0};
  int ready = ::poll(&pfd, 1, wait);
  if (ready == 0)
    return make_error(ErrorCode::kTimeout,
                      "channel send deadline elapsed (peer not reading)");
  if (ready < 0 && errno != EINTR)
    return make_error(ErrorCode::kIoError, "channel poll failed");
  return Status::ok();
}

// sendmsg_all deadlines: -1 blocks; kNoWait gives up at the first EAGAIN
// with kUnavailable.
constexpr int kNoWait = -2;
// iovecs one sendmsg carries: a credit burst of this many frames leaves in
// one call, and longer gather lists loop rather than allocate.
constexpr std::size_t kIovBatch = 128;

// Drains a gather list with sendmsg, advancing past partial writes, adding
// every byte written to `*progress` (if given) and every call to `calls`.
// The iovec array is caller-owned scratch and is consumed destructively.
// deadline_ms >= 0 drives the socket nonblockingly and waits out each
// stall in poll(POLLOUT) against the remaining budget, so a peer that
// stopped reading turns into a bounded kTimeout instead of a wedged sender.
Status sendmsg_all(int fd, struct iovec* iov, std::size_t count,
                   int deadline_ms, std::size_t* progress,
                   std::size_t& calls) {
  std::optional<std::chrono::steady_clock::time_point> start;
  const int flags = MSG_NOSIGNAL | (deadline_ms == -1 ? 0 : MSG_DONTWAIT);
  while (count > 0) {
    struct msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    ++calls;
    ssize_t n = ::sendmsg(fd, &msg, flags);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (deadline_ms == kNoWait)
        return Status(ErrorCode::kUnavailable, "would block");  // no heap
      if (deadline_ms >= 0) {
        if (!start) start = std::chrono::steady_clock::now();
        XMIT_RETURN_IF_ERROR(wait_writable(fd, deadline_ms, *start));
        continue;
      }
    }
    if (n <= 0)
      return make_error(ErrorCode::kIoError,
                        std::string("channel send failed: ") +
                            std::strerror(errno));
    auto left = static_cast<std::size_t>(n);
    if (progress != nullptr) *progress += left;
    while (count > 0 && left >= iov[0].iov_len) {
      left -= iov[0].iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov[0].iov_base = static_cast<char*>(iov[0].iov_base) + left;
      iov[0].iov_len -= left;
    }
  }
  return Status::ok();
}

}  // namespace

Channel::~Channel() { close(); }

Channel::Channel(Channel&& other) noexcept { *this = std::move(other); }

Channel& Channel::operator=(Channel&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    sent_ = other.sent_;
    sendmsg_calls_ = other.sendmsg_calls_;
    bytes_sent_ = other.bytes_sent_;
    send_deadline_ms_ = other.send_deadline_ms_;
    failure_ = other.failure_;
    failure_budget_ = other.failure_budget_;
    bytes_received_ = other.bytes_received_;
    recv_calls_ = other.recv_calls_;
    read_budget_ = other.read_budget_;
    in_ = std::move(other.in_);
    in_cap_ = std::exchange(other.in_cap_, 0);
    in_begin_ = std::exchange(other.in_begin_, 0);
    in_end_ = std::exchange(other.in_end_, 0);
    in_offered_ = std::exchange(other.in_offered_, 0);
    in_skip_ = std::exchange(other.in_skip_, 0);
    read_end_ = std::exchange(other.read_end_, 0);
    out_head_ = std::exchange(other.out_head_, 0);
    out_left_ = std::exchange(other.out_left_, 0);
  }
  return *this;
}

void Channel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  // Buffered bytes die with the stream they came from; the storage stays
  // until the channel is destroyed or replaced.
  in_begin_ = in_end_ = in_offered_ = in_skip_ = 0;
  read_end_ = 0;
  out_head_ = out_left_ = 0;
}

Result<std::pair<Channel, Channel>> Channel::pipe() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    return Status(ErrorCode::kIoError, "socketpair() failed");
  return std::make_pair(Channel(fds[0]), Channel(fds[1]));
}

Result<Channel> Channel::connect(const std::string& host, std::uint16_t port,
                                 int timeout_ms) {
  const std::string where = host + ":" + std::to_string(port);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // Not a dotted quad: resolve the name (IPv4).
    struct addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo* found = nullptr;
    if (::getaddrinfo(host.c_str(), nullptr, &hints, &found) != 0 ||
        found == nullptr)
      return Status(ErrorCode::kNotFound, "cannot resolve host " + host);
    addr.sin_addr = reinterpret_cast<sockaddr_in*>(found->ai_addr)->sin_addr;
    ::freeaddrinfo(found);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return Status(ErrorCode::kIoError, "socket() failed");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return Status(ErrorCode::kIoError, "connect to " + where + " failed");
    }
    struct pollfd pfd = {fd, POLLOUT, 0};
    int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready == 0) {
      ::close(fd);
      return Status(ErrorCode::kTimeout, "connect to " + where + " timed out");
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (ready < 0 || so_error != 0) {
      ::close(fd);
      return Status(ErrorCode::kIoError, "connect to " + where + " failed");
    }
  }
  // Back to blocking for the framed send/receive paths.
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Channel(fd);
}

Status Channel::write_iov(struct iovec* iov, std::size_t count,
                          int deadline_ms, std::size_t* progress) {
  if (failure_ != InjectedFailure::kNone) {
    // Armed writes block (test-only path) so the byte budget is exact.
    deadline_ms = send_deadline_ms_;
    std::size_t total = 0;
    for (std::size_t i = 0; i < count; ++i) total += iov[i].iov_len;
    if (total < failure_budget_) {
      failure_budget_ -= total;
    } else {
      // Budget exhausted mid-write: emit the prefix the wire would have
      // seen, then die. For a kill the prefix stays in the kernel buffer
      // and reaches the peer before EOF; for a reset SO_LINGER{1,0} makes
      // close() abortive.
      std::size_t keep = failure_budget_, used = 0;
      for (; used < count && keep > 0; ++used) {
        iov[used].iov_len = std::min(iov[used].iov_len, keep);
        keep -= iov[used].iov_len;
      }
      Status prefix = sendmsg_all(fd_, iov, used, deadline_ms, nullptr,
                                  sendmsg_calls_);
      (void)prefix;  // the connection is going down either way
      if (failure_ == InjectedFailure::kResetAfterBytes) {
        struct linger lg = {1, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
      }
      failure_ = InjectedFailure::kNone;
      failure_budget_ = 0;
      close();
      return make_error(ErrorCode::kIoError,
                        "injected connection kill/reset mid-stream");
    }
  }
  Status sent =
      sendmsg_all(fd_, iov, count, deadline_ms, progress, sendmsg_calls_);
  // A blown send deadline leaves a partial frame on the wire: the stream
  // cannot be re-synchronized, so the transport is dead.
  if (sent.code() == ErrorCode::kTimeout) close();
  return sent;
}

Status Channel::send(std::span<const std::uint8_t> message) {
  const IoSlice slice{message.data(), message.size()};
  return send_gather(std::span<const IoSlice>(&slice, 1));
}

Status Channel::send_gather(std::span<const IoSlice> slices) {
  if (fd_ < 0) return make_error(ErrorCode::kIoError, "channel is closed");
  std::uint64_t total = 0;
  for (const IoSlice& s : slices) total += s.size;
  if (total > kMaxFrameBytes)
    return make_error(ErrorCode::kInvalidArgument, "message too large");
  std::uint8_t frame[kHeaderBytes];
  store_with_order<std::uint32_t>(frame, static_cast<std::uint32_t>(total),
                                  ByteOrder::kLittle);
  // Batch through a stack iovec array: the frame header rides in the first
  // batch, and records with more out-of-line fields than kIovBatch fall
  // back to additional sendmsg calls rather than a heap allocation.
  struct iovec iov[kIovBatch];
  iov[0] = {frame, sizeof(frame)};
  std::size_t used = 1;
  for (const IoSlice& s : slices) {
    if (s.size == 0) continue;
    if (used == kIovBatch) {
      XMIT_RETURN_IF_ERROR(write_iov(iov, used, send_deadline_ms_));
      used = 0;
    }
    iov[used++] = {const_cast<void*>(s.data), s.size};
  }
  if (used > 0) XMIT_RETURN_IF_ERROR(write_iov(iov, used, send_deadline_ms_));
  ++sent_;
  bytes_sent_ += static_cast<std::size_t>(total) + sizeof(frame);
  return Status::ok();
}

Status Channel::send_frames(std::span<const IoSlice> frames,
                            std::size_t& cursor) {
  if (fd_ < 0) return make_error(ErrorCode::kIoError, "channel is closed");
  const std::size_t start = cursor;
  const auto account = [&] {
    count_frames(frames, start, cursor);
    bytes_sent_ += cursor - start;
  };
  struct iovec iov[kIovBatch];
  std::size_t next = 0, skip = cursor;
  while (next < frames.size() && skip >= frames[next].size)
    skip -= frames[next++].size;
  while (next < frames.size()) {
    std::size_t used = 0;
    for (; next < frames.size() && used < kIovBatch; ++next, skip = 0)
      iov[used++] = {
          const_cast<std::uint8_t*>(
              static_cast<const std::uint8_t*>(frames[next].data)) +
              skip,
          frames[next].size - skip};
    Status sent = write_iov(iov, used, kNoWait, &cursor);
    if (!sent.is_ok()) {
      account();
      return sent;
    }
  }
  account();
  return Status::ok();
}

void Channel::count_frames(std::span<const IoSlice> frames, std::size_t from,
                           std::size_t to) {
  // Jumps frame to frame: a whole length prefix is read at once, and a
  // body is skipped by its length, however many slices it spans.
  std::size_t slice = 0, at = 0;  // frames[slice] starts at batch offset at
  while (from < to) {
    if (out_head_ == kHeaderBytes) {
      const std::size_t body = std::min(out_left_, to - from);
      from += body;
      out_left_ -= body;
    } else {
      while (at + frames[slice].size <= from) at += frames[slice++].size;
      const std::size_t held = at + frames[slice].size - from;
      const std::uint8_t* byte =
          static_cast<const std::uint8_t*>(frames[slice].data) + (from - at);
      if (out_head_ == 0 && std::min(held, to - from) >= kHeaderBytes) {
        out_left_ = frame_length(byte);
        out_head_ = kHeaderBytes;
        from += kHeaderBytes;
      } else {  // a prefix split across slices or calls
        out_left_ |= std::size_t{*byte} << (8 * out_head_++);
        ++from;
      }
    }
    if (out_head_ == kHeaderBytes && out_left_ == 0) {
      ++sent_;
      out_head_ = 0;
    }
  }
}

Status Channel::send_raw(std::span<const std::uint8_t> bytes) {
  if (fd_ < 0) return make_error(ErrorCode::kIoError, "channel is closed");
  struct iovec iov = {const_cast<std::uint8_t*>(bytes.data()), bytes.size()};
  return write_iov(&iov, 1, send_deadline_ms_);
}

bool Channel::poll_writable(int timeout_ms) {
  if (fd_ < 0) return false;
  struct pollfd pfd = {fd_, POLLOUT, 0};
  return ::poll(&pfd, 1, timeout_ms) > 0;
}

bool Channel::next_frame(std::span<const std::uint8_t>& frame, Status& error,
                         std::size_t max_frame_bytes) {
  if (fd_ < 0) {
    error = make_error(ErrorCode::kIoError, "channel is closed");
    return false;
  }
  max_frame_bytes = std::min(max_frame_bytes, kMaxFrameBytes);
  for (;;) {
    const std::size_t held = in_end_ - in_begin_;
    std::size_t want = kHeaderBytes;  // bytes the front frame needs in all
    if (held >= kHeaderBytes) {
      const std::size_t length = frame_length(in_.get() + in_begin_);
      if (length > max_frame_bytes) {
        // Refused before any buffer grows; its body is dropped on arrival.
        in_offered_ -= std::min(in_offered_, want + length);
        in_begin_ += kHeaderBytes;
        in_skip_ = length;
        drop_skipped();
        error = make_error(ErrorCode::kResourceExhausted,
                           "inbound frame exceeds the size limit");
        return false;
      }
      want += length;
      if (held >= want) {
        frame = {in_.get() + in_begin_ + kHeaderBytes, length};
        in_begin_ += want;
        in_offered_ -= std::min(in_offered_, want);
        return true;
      }
    }
    if (read_end_ != 0) {
      const bool clean = read_end_ < 0 && held == 0 && in_skip_ == 0;
      error = make_error(clean ? ErrorCode::kNotFound : ErrorCode::kIoError,
                         clean           ? "end of stream"
                         : read_end_ > 0 ? "channel recv failed"
                                         : "peer closed mid-frame");
      return false;
    }
    if (read_budget_ == 0) {
      error = make_error(ErrorCode::kResourceExhausted,
                         "channel read budget spent");
      return false;
    }
    if (fill(want, read_budget_) == 0 && read_end_ == 0) return false;
  }
}

bool Channel::offer(std::span<const std::uint8_t>& frame,
                    std::size_t max_held) {
  if (fd_ < 0) return false;
  for (;;) {
    const std::size_t at = in_begin_ + in_offered_;
    const std::size_t fresh = in_end_ - at;
    std::size_t want = kHeaderBytes;
    if (fresh >= kHeaderBytes) {
      const std::size_t length = frame_length(in_.get() + at);
      want += length;
      if (fresh >= want) {
        frame = {in_.get() + at + kHeaderBytes, length};
        in_offered_ += want;
        return true;
      }
    }
    // Frames left in place fill the buffer: grow it by doubling.
    const std::size_t held = in_end_ - in_begin_;
    if (read_end_ != 0 || held >= max_held ||
        fill(std::max(in_offered_ + want, max_held),
             std::min(max_held - held, read_budget_)) == 0)
      return false;
  }
}

void Channel::cut(std::span<const std::uint8_t> frame) {
  // Slide the frames left before it (few: the sweep's bound) over it.
  const std::size_t size = kHeaderBytes + frame.size();
  const std::size_t left = in_offered_ - size;
  std::memmove(in_.get() + in_begin_ + size, in_.get() + in_begin_, left);
  in_begin_ += size;
  in_offered_ = left;
}

void Channel::drop_skipped() {
  const std::size_t dropped = std::min(in_skip_, in_end_ - in_begin_);
  in_begin_ += dropped;
  in_skip_ -= dropped;
}

std::size_t Channel::fill(std::size_t want, std::size_t most) {
  if (!in_) {
    in_ = std::make_unique_for_overwrite<std::uint8_t[]>(kInitialReadBytes);
    in_cap_ = kInitialReadBytes;
  }
  const std::size_t held = in_end_ - in_begin_;
  if (in_begin_ > 0) {
    std::memmove(in_.get(), in_.get() + in_begin_, held);
    in_begin_ = 0;
    in_end_ = held;
  }
  if (in_end_ == in_cap_) {
    const std::size_t grown = std::min(in_cap_ * 2, want);
    auto bigger = std::make_unique_for_overwrite<std::uint8_t[]>(grown);
    std::memcpy(bigger.get(), in_.get(), in_end_);
    in_ = std::move(bigger);
    in_cap_ = grown;
  }
  const std::size_t room = std::min(in_cap_ - in_end_, most);
  if (room == 0) return 0;
  ssize_t n;
  do {
    ++recv_calls_;
    n = ::recv(fd_, in_.get() + in_end_, room, MSG_DONTWAIT);
  } while (n < 0 && errno == EINTR);
  if (n == 0) read_end_ = -1;
  if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) read_end_ = errno;
  if (n <= 0) return 0;
  in_end_ += static_cast<std::size_t>(n);
  bytes_received_ += static_cast<std::size_t>(n);
  read_budget_ -= static_cast<std::size_t>(n);
  drop_skipped();
  return static_cast<std::size_t>(n);
}

bool Channel::poll_readable(int timeout_ms) {
  if (fd_ < 0) return false;
  const std::size_t at = in_begin_ + in_offered_;
  if (in_end_ - at >= kHeaderBytes &&
      in_end_ - at - kHeaderBytes >= frame_length(in_.get() + at))
    return true;  // a whole frame is already buffered
  struct pollfd pfd = {fd_, POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms) > 0;
}

Result<std::vector<std::uint8_t>> Channel::receive(int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  std::span<const std::uint8_t> frame;
  Status error;
  while (!next_frame(frame, error)) {
    if (!error.is_ok()) return error;
    const auto left = std::max<long long>(
        std::chrono::ceil<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count(),
        0);
    if (!poll_readable(static_cast<int>(left)) && left == 0)
      return make_error(ErrorCode::kTimeout, "receive timeout");  // fits SSO
  }
  return std::vector<std::uint8_t>(frame.begin(), frame.end());
}

ChannelListener::~ChannelListener() {
  if (fd_ >= 0) ::close(fd_);
}

ChannelListener::ChannelListener(ChannelListener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}

ChannelListener& ChannelListener::operator=(ChannelListener&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

Result<ChannelListener> ChannelListener::listen(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status(ErrorCode::kIoError, "socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status(ErrorCode::kIoError, "bind failed");
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status(ErrorCode::kIoError, "listen failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  return ChannelListener(fd, ntohs(addr.sin_port));
}

Result<Channel> ChannelListener::accept(int timeout_ms) {
  struct pollfd pfd = {fd_, POLLIN, 0};
  int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready == 0) return Status(ErrorCode::kTimeout, "accept timeout");
  if (ready < 0) return Status(ErrorCode::kIoError, "accept poll failed");
  int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) return Status(ErrorCode::kIoError, "accept failed");
  int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Channel(client);
}

}  // namespace xmit::net
