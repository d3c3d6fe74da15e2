#include "storage/framing.hpp"

#include <cstring>

#include "common/endian.hpp"
#include "storage/crc32c.hpp"

namespace xmit::storage {
namespace {

std::uint32_t load_u32(const std::uint8_t* p) {
  return load_with_order<std::uint32_t>(p, ByteOrder::kLittle);
}
std::uint64_t load_u64(const std::uint8_t* p) {
  return load_with_order<std::uint64_t>(p, ByteOrder::kLittle);
}

// CRC of a frame: header fields after the magic, then the payload.
std::uint32_t frame_crc(std::uint32_t payload_len, std::uint64_t seq,
                        std::uint64_t format_id,
                        std::span<const IoSlice> payload) {
  std::uint8_t head[20];
  store_with_order<std::uint32_t>(head, payload_len, ByteOrder::kLittle);
  store_with_order<std::uint64_t>(head + 4, seq, ByteOrder::kLittle);
  store_with_order<std::uint64_t>(head + 12, format_id, ByteOrder::kLittle);
  std::uint32_t crc = crc32c_extend(kCrc32cSeed, {head, sizeof(head)});
  for (const IoSlice& s : payload)
    crc = crc32c_extend(
        crc, {static_cast<const std::uint8_t*>(s.data), s.size});
  return crc;
}

}  // namespace

void append_file_header(ByteBuffer& out, const char (&magic)[8],
                        std::uint64_t base_seq) {
  out.append(magic, sizeof(magic));
  out.append_u32(kFormatVersion, ByteOrder::kLittle);
  out.append_u32(0, ByteOrder::kLittle);  // flags, reserved
  out.append_u64(base_seq, ByteOrder::kLittle);
}

Result<std::uint64_t> parse_file_header(std::span<const std::uint8_t> bytes,
                                        const char (&magic)[8]) {
  if (bytes.size() < kSegmentHeaderBytes)
    return Status(ErrorCode::kOutOfRange, "file shorter than its header");
  if (std::memcmp(bytes.data(), magic, sizeof(magic)) != 0)
    return Status(ErrorCode::kMalformedInput, "bad storage file magic");
  const std::uint32_t version = load_u32(bytes.data() + 8);
  if (version != kFormatVersion)
    return Status(ErrorCode::kUnsupported,
                  "storage file version " + std::to_string(version) +
                      " (this build reads version 1)");
  return load_u64(bytes.data() + 16);
}

void append_frame(ByteBuffer& out, std::uint64_t seq, std::uint64_t format_id,
                  std::span<const IoSlice> payload) {
  std::size_t total = 0;
  for (const IoSlice& s : payload) total += s.size;
  const auto payload_len = static_cast<std::uint32_t>(total);
  out.append_u32(kFrameMagic, ByteOrder::kLittle);
  out.append_u32(payload_len, ByteOrder::kLittle);
  out.append_u64(seq, ByteOrder::kLittle);
  out.append_u64(format_id, ByteOrder::kLittle);
  out.append_u32(frame_crc(payload_len, seq, format_id, payload),
                 ByteOrder::kLittle);
  for (const IoSlice& s : payload) out.append(s.data, s.size);
}

void append_frame(ByteBuffer& out, std::uint64_t seq, std::uint64_t format_id,
                  std::span<const std::uint8_t> payload) {
  const IoSlice slice{payload.data(), payload.size()};
  append_frame(out, seq, format_id, std::span<const IoSlice>(&slice, 1));
}

Result<std::size_t> frame_size(std::span<const std::uint8_t> frame,
                               std::uint64_t offset,
                               const DecodeLimits& limits) {
  if (frame.size() < kFrameHeaderBytes)
    return Status(ErrorCode::kOutOfRange,
                  "incomplete frame header at offset " +
                      std::to_string(offset));
  if (load_u32(frame.data()) != kFrameMagic)
    return Status(ErrorCode::kMalformedInput,
                  "bad frame magic at offset " + std::to_string(offset));
  // Bound the declared length before anything is read past the header
  // or allocated for it: a length lie must cost a typed refusal.
  const std::uint32_t payload_len = load_u32(frame.data() + 4);
  if (payload_len > limits.max_message_bytes)
    return Status(ErrorCode::kResourceExhausted,
                  "frame at offset " + std::to_string(offset) + " declares " +
                      std::to_string(payload_len) +
                      " payload bytes, over the frame budget");
  return kFrameHeaderBytes + payload_len;
}

Result<FrameView> parse_frame(std::span<const std::uint8_t> bytes,
                              std::size_t at, const DecodeLimits& limits) {
  if (at > bytes.size())
    return Status(ErrorCode::kOutOfRange, "frame offset past end of segment");
  XMIT_ASSIGN_OR_RETURN(const std::size_t size,
                        frame_size(bytes.subspan(at), at, limits));
  if (size > bytes.size() - at) {
    // The frame header is intact but the payload is cut short — the
    // canonical torn tail. (A liar is indistinguishable from a crash
    // here, and truncation is safe for both.)
    return Status(ErrorCode::kOutOfRange,
                  "frame payload cut short at offset " + std::to_string(at));
  }
  const std::uint8_t* head = bytes.data() + at;
  const auto payload_len = static_cast<std::uint32_t>(size - kFrameHeaderBytes);
  FrameView view;
  view.seq = load_u64(head + 8);
  view.format_id = load_u64(head + 16);
  const std::uint32_t stored_crc = load_u32(head + 24);
  view.payload = std::span<const std::uint8_t>(head + kFrameHeaderBytes,
                                               payload_len);
  const IoSlice slice{view.payload.data(), view.payload.size()};
  if (frame_crc(payload_len, view.seq, view.format_id,
                std::span<const IoSlice>(&slice, 1)) != stored_crc)
    return Status(ErrorCode::kMalformedInput,
                  "frame CRC mismatch at offset " + std::to_string(at));
  view.next_offset = at + kFrameHeaderBytes + payload_len;
  return view;
}

ScanResult scan_segment(std::span<const std::uint8_t> bytes,
                        const DecodeLimits& limits, const FrameFn& on_frame,
                        const char (&magic)[8]) {
  ScanResult result;
  if (bytes.size() < kSegmentHeaderBytes) {
    // A crash can tear even the header write of a freshly-rotated
    // segment; that is a torn tail at offset 0, not hostility.
    result.stop = ScanStop::kTornTail;
    return result;
  }
  auto base = parse_file_header(bytes, magic);
  if (!base.is_ok()) {
    result.stop = ScanStop::kCorrupt;
    result.error = base.status();
    return result;
  }
  const std::uint64_t base_seq = base.value();
  std::uint64_t expect_seq = base_seq;  // 0 = unconstrained first seq
  std::size_t at = kSegmentHeaderBytes;
  result.valid_bytes = at;

  while (at < bytes.size()) {
    auto frame = parse_frame(bytes, at, limits);
    if (!frame.is_ok()) {
      switch (frame.code()) {
        case ErrorCode::kOutOfRange:
          result.stop = ScanStop::kTornTail;
          return result;
        case ErrorCode::kResourceExhausted:
          result.stop = ScanStop::kLimit;
          break;
        default:
          result.stop = ScanStop::kCorrupt;
          break;
      }
      result.error = frame.status();
      return result;
    }
    const FrameView& view = frame.value();
    if (view.seq == 0 || (expect_seq != 0 && view.seq != expect_seq)) {
      result.stop = ScanStop::kCorrupt;
      result.error = Status(
          ErrorCode::kMalformedInput,
          "frame at offset " + std::to_string(at) + " carries seq " +
              std::to_string(view.seq) + " where " +
              (expect_seq != 0 ? std::to_string(expect_seq) : "a nonzero seq") +
              " was required");
      return result;
    }
    if (result.frames == 0) result.first_seq = view.seq;
    result.last_seq = view.seq;
    ++result.frames;
    expect_seq = view.seq + 1;
    const std::size_t frame_offset = at;
    at = view.next_offset;
    result.valid_bytes = at;
    if (on_frame &&
        !on_frame(view.seq, view.format_id, view.payload, frame_offset)) {
      result.stop = ScanStop::kCallerStop;
      return result;
    }
  }
  result.stop = ScanStop::kEnd;
  return result;
}

void append_index_entry(ByteBuffer& out, const IndexEntry& entry) {
  std::uint8_t body[16];
  store_with_order<std::uint64_t>(body, entry.seq, ByteOrder::kLittle);
  store_with_order<std::uint64_t>(body + 8, entry.offset, ByteOrder::kLittle);
  out.append(body, sizeof(body));
  out.append_u32(crc32c({body, sizeof(body)}), ByteOrder::kLittle);
  out.append_u32(0, ByteOrder::kLittle);
}

std::vector<IndexEntry> parse_index(std::span<const std::uint8_t> index_bytes,
                                    std::span<const std::uint8_t> segment,
                                    std::uint64_t base_seq,
                                    const DecodeLimits& limits) {
  std::vector<IndexEntry> entries;
  auto base = parse_file_header(index_bytes, kIndexMagic);
  if (!base.is_ok() || base.value() != base_seq) return entries;
  std::size_t at = kSegmentHeaderBytes;
  std::uint64_t last_seq = 0;
  // An index can only ever hold one entry per frame; anything larger is
  // a lie and capped before the loop allocates proportionally to it.
  const std::size_t max_entries =
      segment.size() / kFrameHeaderBytes + 1;
  while (at + kIndexEntryBytes <= index_bytes.size() &&
         entries.size() < max_entries) {
    const std::uint8_t* p = index_bytes.data() + at;
    IndexEntry entry;
    entry.seq = load_u64(p);
    entry.offset = load_u64(p + 8);
    const std::uint32_t stored = load_u32(p + 16);
    if (crc32c({p, 16}) != stored) break;  // torn or rotten entry
    // The entry must point at an in-bounds, fully intact frame — CRC and
    // all — carrying exactly the claimed sequence number. An index is a
    // cache of the segment's truth, never a second source of it.
    if (entry.offset < kSegmentHeaderBytes) break;
    auto frame = parse_frame(segment, entry.offset, limits);
    if (!frame.is_ok() || frame.value().seq != entry.seq) break;
    if (!entries.empty() &&
        (entry.seq <= last_seq || entry.offset <= entries.back().offset))
      break;  // non-monotonic index: discard the remainder
    last_seq = entry.seq;
    entries.push_back(entry);
    at += kIndexEntryBytes;
  }
  return entries;
}

const char* scan_stop_name(ScanStop stop) {
  switch (stop) {
    case ScanStop::kEnd: return "clean";
    case ScanStop::kTornTail: return "torn-tail";
    case ScanStop::kCorrupt: return "corrupt";
    case ScanStop::kCallerStop: return "stopped";
    case ScanStop::kLimit: return "over-limit";
  }
  return "unknown";
}

}  // namespace xmit::storage
