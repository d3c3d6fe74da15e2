#include "storage/io.hpp"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstring>

namespace xmit::storage {
namespace {

Status errno_error(const char* what) {
  return Status(ErrorCode::kIoError,
                std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

UniqueFd& UniqueFd::operator=(UniqueFd&& other) noexcept {
  if (this != &other) {
    reset(other.fd_);
    other.fd_ = -1;
  }
  return *this;
}

void UniqueFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Status FaultArmer::admit_write(std::size_t want, std::size_t* allowed) {
  *allowed = want;
  if (fault_.kind == StorageFault::Kind::kNone ||
      fault_.kind == StorageFault::Kind::kFsyncFail || fired_) {
    return Status::ok();
  }
  if (consumed_ + want <= fault_.after_bytes) {
    consumed_ += want;
    return Status::ok();
  }
  fired_ = true;
  switch (fault_.kind) {
    case StorageFault::Kind::kShortWrite:
      *allowed = static_cast<std::size_t>(fault_.after_bytes - consumed_);
      consumed_ = fault_.after_bytes;
      return Status(ErrorCode::kIoError,
                    "injected short write: device died mid-frame");
    case StorageFault::Kind::kEnospc:
      *allowed = 0;
      return Status(ErrorCode::kResourceExhausted,
                    "injected ENOSPC: no space left on device");
    case StorageFault::Kind::kEio:
      *allowed = 0;
      return Status(ErrorCode::kIoError, "injected EIO: write failed");
    default:
      return Status::ok();
  }
}

Status FaultArmer::admit_fsync() {
  if (fault_.kind != StorageFault::Kind::kFsyncFail || fired_)
    return Status::ok();
  if (consumed_ < fault_.after_bytes) {
    ++consumed_;
    return Status::ok();
  }
  fired_ = true;
  return Status(ErrorCode::kIoError, "injected fsync failure");
}

Status write_all(int fd, std::span<const std::uint8_t> bytes,
                 FaultArmer* faults) {
  std::size_t allowed = bytes.size();
  Status verdict = Status::ok();
  if (faults != nullptr) {
    verdict = faults->admit_write(bytes.size(), &allowed);
    // An injected short write still lands its prefix — fall through and
    // write `allowed` bytes, then report the failure.
  }
  std::size_t done = 0;
  while (done < allowed) {
    ssize_t n = ::write(fd, bytes.data() + done, allowed - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_error("write");
    }
    done += static_cast<std::size_t>(n);
  }
  return verdict;
}

Status sync_fd(int fd, FaultArmer* faults) {
  if (faults != nullptr) XMIT_RETURN_IF_ERROR(faults->admit_fsync());
  if (::fsync(fd) != 0) return errno_error("fsync");
  return Status::ok();
}

Result<std::vector<std::uint8_t>> read_file_bytes(const std::string& path,
                                                  std::uint64_t max_bytes) {
  std::vector<std::uint8_t> bytes;
  XMIT_RETURN_IF_ERROR(read_file_tail(path, max_bytes, bytes));
  return bytes;
}

Status read_file_tail(const std::string& path, std::uint64_t max_bytes,
                      std::vector<std::uint8_t>& bytes) {
  UniqueFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (!fd.valid()) return errno_error(("open " + path).c_str());
  struct stat st{};
  if (::fstat(fd.get(), &st) != 0) return errno_error("fstat");
  if (st.st_size < 0 || static_cast<std::uint64_t>(st.st_size) > max_bytes)
    return Status(ErrorCode::kResourceExhausted,
                  path + " is " + std::to_string(st.st_size) +
                      " bytes, over the storage read budget");
  const auto size = static_cast<std::size_t>(st.st_size);
  std::size_t done = bytes.size();
  if (size <= done) return Status::ok();
  bytes.resize(size);  // grows geometrically: each byte is copied O(1) times
  while (done < size) {
    ssize_t n = ::pread(fd.get(), bytes.data() + done, size - done,
                        static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_error("read");
    }
    if (n == 0) break;  // racing truncation: keep what we got
    done += static_cast<std::size_t>(n);
  }
  bytes.resize(done);
  return Status::ok();
}

Status ensure_directory(const std::string& path) {
  if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST) return Status::ok();
  return errno_error(("mkdir " + path).c_str());
}

Status write_file_atomic(const std::string& path,
                         std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  {
    UniqueFd fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                       0666));
    if (!fd.valid()) return errno_error(("open " + tmp).c_str());
    XMIT_RETURN_IF_ERROR(write_all(fd.get(), bytes, nullptr));
    XMIT_RETURN_IF_ERROR(sync_fd(fd.get(), nullptr));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0)
    return errno_error(("rename " + tmp).c_str());
  return Status::ok();
}

}  // namespace xmit::storage
