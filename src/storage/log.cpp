#include "storage/log.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace xmit::storage {
namespace {

constexpr char kSegmentPrefix[] = "seg-";
constexpr char kSegmentSuffix[] = ".log";
constexpr char kIndexSuffix[] = ".idx";
constexpr std::size_t kBaseHexDigits = 16;

std::string segment_name(std::uint64_t base_seq, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%016llx%s", kSegmentPrefix,
                static_cast<unsigned long long>(base_seq), suffix);
  return buf;
}

// Parses "seg-<16 hex>.log" → base_seq; nullopt for anything else (other
// files in the directory are simply not ours to touch).
std::optional<std::uint64_t> parse_segment_name(const char* name) {
  const std::size_t prefix = sizeof(kSegmentPrefix) - 1;
  const std::size_t suffix = sizeof(kSegmentSuffix) - 1;
  const std::size_t len = std::strlen(name);
  if (len != prefix + kBaseHexDigits + suffix) return std::nullopt;
  if (std::strncmp(name, kSegmentPrefix, prefix) != 0) return std::nullopt;
  if (std::strcmp(name + prefix + kBaseHexDigits, kSegmentSuffix) != 0)
    return std::nullopt;
  std::uint64_t base = 0;
  for (std::size_t i = 0; i < kBaseHexDigits; ++i) {
    const char c = name[prefix + i];
    std::uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<std::uint64_t>(c - 'a' + 10);
    else return std::nullopt;
    base = (base << 4) | digit;
  }
  return base;
}

Status errno_error(const std::string& what) {
  return Status(ErrorCode::kIoError, what + ": " + std::strerror(errno));
}

}  // namespace

const char* fsync_policy_name(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNone: return "none";
    case FsyncPolicy::kInterval: return "interval";
    case FsyncPolicy::kAlways: return "always";
  }
  return "unknown";
}

std::uint64_t RecordLog::read_budget() const {
  // A segment may exceed segment_bytes by one maximal frame (rotation
  // happens before the append that would overflow, but a single frame is
  // never split), so the read ceiling must cover that worst case.
  return options_.segment_bytes + kSegmentHeaderBytes + kFrameHeaderBytes +
         limits_.max_message_bytes;
}

Result<RecordLog> RecordLog::open(const std::string& dir,
                                  const LogOptions& options,
                                  const DecodeLimits& limits) {
  RecordLog log;
  log.dir_ = dir;
  log.options_ = options;
  log.limits_ = limits;
  XMIT_RETURN_IF_ERROR(ensure_directory(dir));

  // Enumerate segments. Anything that is not "seg-<hex>.log" is ignored;
  // a base_seq of zero is not a crash artifact (segments are only ever
  // created for a real, nonzero seq) so it is refused, not repaired.
  std::vector<std::uint64_t> bases;
  {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return errno_error("opendir " + dir);
    while (struct dirent* entry = ::readdir(d)) {
      if (auto base = parse_segment_name(entry->d_name)) {
        if (*base == 0) {
          ::closedir(d);
          return Status(ErrorCode::kMalformedInput,
                        dir + "/" + entry->d_name +
                            " claims base sequence 0, which no writer "
                            "ever produces");
        }
        bases.push_back(*base);
      }
    }
    ::closedir(d);
  }
  std::sort(bases.begin(), bases.end());
  for (std::uint64_t base : bases) {
    Segment seg;
    seg.base_seq = base;
    seg.path = dir + "/" + segment_name(base, kSegmentSuffix);
    seg.index = dir + "/" + segment_name(base, kIndexSuffix);
    log.segments_.push_back(std::move(seg));
  }

  // Recovery: walk from the tail. A tail segment with zero valid frames
  // is a crash artifact from rotation (header landed, no frame did) —
  // delete it and retry with the previous segment.
  while (!log.segments_.empty()) {
    const Segment& tail = log.segments_.back();
    XMIT_ASSIGN_OR_RETURN(auto bytes,
                          read_file_bytes(tail.path, log.read_budget()));

    // Rebuild the tail's sparse index while scanning: the old sidecar
    // may itself be torn, and regenerating it from authenticated frames
    // is cheaper than diagnosing it.
    ByteBuffer index;
    append_file_header(index, kIndexMagic, tail.base_seq);
    std::uint64_t since_entry = 0;
    ScanResult scan = scan_segment(
        std::span<const std::uint8_t>(bytes.data(), bytes.size()),
        log.limits_,
        [&](std::uint64_t seq, std::uint64_t, std::span<const std::uint8_t> p,
            std::size_t offset) {
          since_entry += kFrameHeaderBytes + p.size();
          if (since_entry >= log.options_.index_every_bytes) {
            append_index_entry(index, IndexEntry{seq, offset});
            since_entry = 0;
          }
          return true;
        });
    if (scan.stop == ScanStop::kCorrupt && scan.frames == 0 &&
        bytes.size() >= kSegmentHeaderBytes) {
      // A present-but-lying header (wrong magic, wrong version, or a
      // base_seq the filename disagrees with) is not a crash artifact;
      // refuse rather than silently deleting data.
      return scan.error;
    }
    if (scan.frames > 0 && scan.first_seq != tail.base_seq)
      return Status(ErrorCode::kMalformedInput,
                    tail.path + " starts at seq " +
                        std::to_string(scan.first_seq) +
                        ", disagreeing with its filename");
    if (scan.frames == 0) {
      if (::unlink(tail.path.c_str()) != 0 && errno != ENOENT)
        return errno_error("unlink " + tail.path);
      ::unlink(tail.index.c_str());
      log.recovered_dropped_ += bytes.size();
      if (scan.stop != ScanStop::kEnd) log.recovery_stop_ = scan.stop;
      log.segments_.pop_back();
      continue;
    }

    // This segment is the live tail: cut everything past the last valid
    // frame (torn tails and trailing corruption alike — the scan already
    // classified which, and stats carry the verdict).
    UniqueFd fd(::open(tail.path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC));
    if (!fd.valid()) return errno_error("open " + tail.path);
    if (scan.valid_bytes < bytes.size()) {
      log.recovered_dropped_ += bytes.size() - scan.valid_bytes;
      log.recovery_stop_ = scan.stop;
      if (::ftruncate(fd.get(), static_cast<off_t>(scan.valid_bytes)) != 0)
        return errno_error("ftruncate " + tail.path);
    }
    XMIT_RETURN_IF_ERROR(
        write_file_atomic(tail.index, index.span()));
    UniqueFd idx(::open(tail.index.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC));
    if (!idx.valid()) return errno_error("open " + tail.index);

    log.active_fd_ = std::move(fd);
    log.index_fd_ = std::move(idx);
    log.active_bytes_ = scan.valid_bytes;
    log.bytes_since_index_ = since_entry;
    log.last_seq_ = scan.last_seq;
    break;
  }

  if (!log.segments_.empty()) log.first_seq_ = log.segments_.front().base_seq;
  // Whatever survived recovery was read back from the medium, which is
  // the strongest durability statement this layer can make.
  log.synced_seq_ = log.last_seq_;
  return log;
}

Status RecordLog::fail(Status status) {
  fail_status_ = status;
  return status;
}

Status RecordLog::create_segment(std::uint64_t base_seq) {
  Segment seg;
  seg.base_seq = base_seq;
  seg.path = dir_ + "/" + segment_name(base_seq, kSegmentSuffix);
  seg.index = dir_ + "/" + segment_name(base_seq, kIndexSuffix);

  UniqueFd fd(::open(seg.path.c_str(),
                     O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666));
  if (!fd.valid()) return errno_error("create " + seg.path);
  scratch_.clear();
  append_file_header(scratch_, kSegmentMagic, base_seq);
  XMIT_RETURN_IF_ERROR(write_all(fd.get(), scratch_.span(), &faults_));

  scratch_.clear();
  append_file_header(scratch_, kIndexMagic, base_seq);
  UniqueFd idx(::open(seg.index.c_str(),
                      O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666));
  if (idx.valid())  // the index is advisory; losing it costs only speed
    (void)write_all(idx.get(), scratch_.span(), nullptr);

  segments_.push_back(std::move(seg));
  active_fd_ = std::move(fd);
  index_fd_ = std::move(idx);
  active_bytes_ = kSegmentHeaderBytes;
  bytes_since_index_ = 0;
  return Status::ok();
}

Status RecordLog::rotate(std::uint64_t next_seq) {
  // Seal the active segment: everything in it must be on the medium
  // before its successor exists, or recovery order could invert.
  if (options_.fsync != FsyncPolicy::kNone && active_fd_.valid()) {
    XMIT_RETURN_IF_ERROR(sync_fd(active_fd_.get(), &faults_));
    synced_seq_ = last_seq_;
    records_since_sync_ = 0;
  }
  XMIT_RETURN_IF_ERROR(create_segment(next_seq));
  apply_retention();
  return Status::ok();
}

void RecordLog::apply_retention() {
  if (options_.retention_segments == 0) return;
  while (segments_.size() > options_.retention_segments) {
    ::unlink(segments_.front().path.c_str());
    ::unlink(segments_.front().index.c_str());
    segments_.erase(segments_.begin());
  }
  if (!segments_.empty()) first_seq_ = segments_.front().base_seq;
}

Status RecordLog::append(std::uint64_t seq, std::uint64_t format_id,
                         std::span<const IoSlice> payload) {
  if (!fail_status_.is_ok())
    return Status(fail_status_.code(),
                  "log is poisoned by an earlier failure (" +
                      fail_status_.message() + "); reopen to recover");
  if (seq == 0)
    return Status(ErrorCode::kInvalidArgument, "sequence 0 is reserved");
  if (last_seq_ != 0 && seq != last_seq_ + 1)
    return Status(ErrorCode::kInvalidArgument,
                  "append of seq " + std::to_string(seq) +
                      " would break contiguity (last is " +
                      std::to_string(last_seq_) + ")");
  std::uint64_t total = 0;
  for (const IoSlice& s : payload) {
    if (!checked_add(total, s.size, &total))
      return Status(ErrorCode::kInvalidArgument, "payload length overflow");
  }
  if (total > limits_.max_message_bytes)
    return Status(ErrorCode::kInvalidArgument,
                  "record of " + std::to_string(total) +
                      " bytes exceeds the frame budget and could never be "
                      "read back");
  const std::uint64_t frame_bytes = kFrameHeaderBytes + total;

  if (segments_.empty()) {
    Status created = create_segment(seq);
    if (!created.is_ok()) return fail(created);
  } else if (active_bytes_ > kSegmentHeaderBytes &&
             active_bytes_ + frame_bytes > options_.segment_bytes) {
    Status rotated = rotate(seq);
    if (!rotated.is_ok()) return fail(rotated);
  }

  const std::uint64_t frame_offset = active_bytes_;
  scratch_.clear();
  append_frame(scratch_, seq, format_id, payload);
  Status written = write_all(active_fd_.get(), scratch_.span(), &faults_);
  if (!written.is_ok()) return fail(written);

  active_bytes_ += frame_bytes;
  last_seq_ = seq;
  if (first_seq_ == 0) first_seq_ = seq;
  ++appended_records_;

  bytes_since_index_ += frame_bytes;
  if (bytes_since_index_ >= options_.index_every_bytes && index_fd_.valid()) {
    scratch_.clear();
    append_index_entry(scratch_, IndexEntry{seq, frame_offset});
    (void)write_all(index_fd_.get(), scratch_.span(), nullptr);  // advisory
    bytes_since_index_ = 0;
  }

  switch (options_.fsync) {
    case FsyncPolicy::kAlways:
      return sync();
    case FsyncPolicy::kInterval:
      if (++records_since_sync_ >= options_.fsync_interval_records)
        return sync();
      return Status::ok();
    case FsyncPolicy::kNone:
      return Status::ok();
  }
  return Status::ok();
}

Status RecordLog::append(std::uint64_t seq, std::uint64_t format_id,
                         std::span<const std::uint8_t> payload) {
  const IoSlice slice{payload.data(), payload.size()};
  return append(seq, format_id, std::span<const IoSlice>(&slice, 1));
}

Status RecordLog::sync() {
  if (!fail_status_.is_ok())
    return Status(fail_status_.code(),
                  "log is poisoned by an earlier failure (" +
                      fail_status_.message() + "); reopen to recover");
  if (!active_fd_.valid()) return Status::ok();  // nothing appended yet
  Status synced = sync_fd(active_fd_.get(), &faults_);
  if (!synced.is_ok()) return fail(synced);
  synced_seq_ = last_seq_;
  records_since_sync_ = 0;
  return Status::ok();
}

std::size_t RecordLog::Cursor::segment_for(std::uint64_t seq) const {
  // Last segment whose base_seq <= seq: binary search over the sorted
  // base_seqs (this is the O(log n) seek the index then refines).
  std::size_t lo = 0, hi = log_->segments_.size();
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (log_->segments_[mid].base_seq <= seq) lo = mid;
    else hi = mid;
  }
  return lo;
}

bool RecordLog::Cursor::buffered() const {
  return next_seq_ != 0 && next_seq_ <= log_->last_seq_ &&
         loaded_base_ == log_->segments_[segment_for(next_seq_)].base_seq &&
         offset_ < bytes_.size();
}

void RecordLog::Cursor::rewind(const Item& item) {
  next_seq_ = item.seq;
  offset_ = static_cast<std::size_t>(item.payload.data() - bytes_.data()) -
            kFrameHeaderBytes;
}

Status RecordLog::Cursor::load_segment_for(std::uint64_t seq) {
  const Segment& seg = log_->segments_[segment_for(seq)];
  const std::uint64_t budget = log_->read_budget();
  XMIT_ASSIGN_OR_RETURN(bytes_, read_file_bytes(seg.path, budget));
  const std::span<const std::uint8_t> image(bytes_.data(), bytes_.size());
  XMIT_ASSIGN_OR_RETURN(auto base, parse_file_header(image, kSegmentMagic));
  if (base != seg.base_seq)
    return Status(ErrorCode::kMalformedInput,
                  seg.path + " header disagrees with its filename");
  offset_ = kSegmentHeaderBytes;
  if (auto idx = read_file_bytes(seg.index, budget); idx.is_ok()) {
    const auto& raw = idx.value();
    const auto entries = parse_index(
        std::span<const std::uint8_t>(raw.data(), raw.size()), image,
        seg.base_seq, log_->limits_);
    // Greatest verified entry at or before the wanted seq.
    for (const IndexEntry& entry : entries) {
      if (entry.seq > seq) break;
      offset_ = entry.offset;
    }
  }
  loaded_base_ = seg.base_seq;
  return Status::ok();
}

Result<bool> RecordLog::Cursor::next(Item* out) {
  while (true) {
    if (next_seq_ == 0 || next_seq_ > log_->last_seq_) return false;
    // Segment i covers [base_i, base_i+1).
    const Segment& seg = log_->segments_[segment_for(next_seq_)];
    if (loaded_base_ != seg.base_seq)
      XMIT_RETURN_IF_ERROR(load_segment_for(next_seq_));
    // A segment loaded while it was still being appended to: read on.
    if (offset_ >= bytes_.size())
      XMIT_RETURN_IF_ERROR(
          read_file_tail(seg.path, log_->read_budget(), bytes_));
    if (offset_ >= bytes_.size())
      return Status(ErrorCode::kDataLoss,
                    "segment " + std::to_string(seg.base_seq) +
                        " ended before seq " + std::to_string(next_seq_));
    auto frame = parse_frame(
        std::span<const std::uint8_t>(bytes_.data(), bytes_.size()), offset_,
        log_->limits_);
    if (!frame.is_ok()) {
      if (frame.code() == ErrorCode::kOutOfRange)
        return Status(ErrorCode::kDataLoss,
                      "torn frame inside the durable range at seq " +
                          std::to_string(next_seq_));
      return frame.status();
    }
    const FrameView& view = frame.value();
    offset_ = view.next_offset;
    if (view.seq < next_seq_) continue;  // index landed short; keep walking
    if (view.seq != next_seq_)
      return Status(ErrorCode::kDataLoss,
                    "expected seq " + std::to_string(next_seq_) +
                        " but the segment holds " + std::to_string(view.seq));
    out->seq = view.seq;
    out->format_id = view.format_id;
    out->payload = view.payload;
    ++next_seq_;
    return true;
  }
}

}  // namespace xmit::storage
