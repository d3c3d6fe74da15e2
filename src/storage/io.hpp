// Low-level file plumbing for the storage layer: RAII fds, short-write
// safe helpers, and the deterministic fault seam the crash harness arms.
//
// The write path models the failures a real filesystem produces:
//   kShortWrite  write(2) persists only a prefix, then the device dies —
//                the canonical torn-frame producer
//   kEnospc      write(2) fails outright with no bytes persisted
//   kEio         as kEnospc but the generic I/O flavour
//   kFsyncFail   fsync(2) fails — after which nothing already handed to
//                the kernel can be trusted (the fsync-gate rule), so the
//                log poisons itself and demands a reopen
// Faults are armed with a byte budget ("fail once this many more payload
// bytes have been written"), which is what lets the harness sweep every
// byte boundary of a scripted append stream deterministically.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace xmit::storage {

struct StorageFault {
  enum class Kind : std::uint8_t {
    kNone = 0,
    kShortWrite,
    kEnospc,
    kEio,
    kFsyncFail,
  };
  Kind kind = Kind::kNone;
  // Bytes that still succeed before the fault fires (for kFsyncFail:
  // fsync calls that still succeed).
  std::uint64_t after_bytes = 0;

  static StorageFault none() { return {}; }
  static StorageFault short_write(std::uint64_t after) {
    return {Kind::kShortWrite, after};
  }
  static StorageFault enospc(std::uint64_t after) {
    return {Kind::kEnospc, after};
  }
  static StorageFault eio(std::uint64_t after) { return {Kind::kEio, after}; }
  static StorageFault fsync_fail(std::uint64_t after_calls) {
    return {Kind::kFsyncFail, after_calls};
  }
};

// Owning fd, movable, closes on destruction.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  UniqueFd& operator=(UniqueFd&& other) noexcept;
  ~UniqueFd() { reset(); }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

// Applies an armed fault across a sequence of writes/fsyncs. One armer
// per log; the budget counts payload bytes handed to write_all.
class FaultArmer {
 public:
  void arm(const StorageFault& fault) {
    fault_ = fault;
    consumed_ = 0;
    fired_ = false;
  }
  bool fired() const { return fired_; }

  // Returns how many of `want` bytes the next write may pass through, or
  // an error if the fault fires before any byte. Sets *short_write when
  // the write must be cut short (and fail after the prefix lands).
  Status admit_write(std::size_t want, std::size_t* allowed);
  Status admit_fsync();

 private:
  StorageFault fault_;
  std::uint64_t consumed_ = 0;
  bool fired_ = false;
};

// write(2) until done, EINTR-retrying, routed through `faults` when
// non-null. On an injected short write the admitted prefix really lands
// in the file (that is the point) and the call fails.
Status write_all(int fd, std::span<const std::uint8_t> bytes,
                 FaultArmer* faults);

// fsync(2), routed through `faults` when non-null.
Status sync_fd(int fd, FaultArmer* faults);

// Reads a whole file, refusing files larger than `max_bytes` (a hostile
// directory must not cost an unbounded allocation).
Result<std::vector<std::uint8_t>> read_file_bytes(const std::string& path,
                                                  std::uint64_t max_bytes);
// Appends to `bytes` what `path` holds past its first bytes.size() bytes:
// the tail of a file read before and grown since. Same size bound.
Status read_file_tail(const std::string& path, std::uint64_t max_bytes,
                      std::vector<std::uint8_t>& bytes);

// mkdir -p for one level; EEXIST is success.
Status ensure_directory(const std::string& path);

// Atomic replace: write bytes to path.tmp, fsync, rename over path.
Status write_file_atomic(const std::string& path,
                         std::span<const std::uint8_t> bytes);

}  // namespace xmit::storage
