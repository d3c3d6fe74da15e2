// On-disk framing for the durable record log and the format catalog.
//
// Everything read back from disk is treated as an untrusted-byte surface:
// a crashed writer leaves torn tails, a sick disk returns rot, and an
// adversary can hand us a directory of hand-built segments. The scanners
// here therefore never trust a declared length without bounding it
// against both the bytes actually present and the caller's DecodeLimits,
// and they classify every stop as either a *torn tail* (truncation at a
// frame boundary — the expected crash artifact, safe to truncate away)
// or *corruption* (a fully-present frame whose CRC or structure lies —
// surfaced, never silently dropped).
//
// Layout (all integers little-endian, like pbio/format_wire):
//
//   segment file   := SegmentHeader Frame*
//   SegmentHeader  := magic "XMITLOG1" | u32 version | u32 flags
//                     | u64 base_seq                       (24 bytes)
//   Frame          := u32 frame-magic | u32 payload_len | u64 seq
//                     | u64 format_id | u32 crc32c | payload
//                                                          (28 + len)
//   crc32c covers [payload_len | seq | format_id | payload] — the length
//   field is inside the CRC, so a length-lying frame cannot carry a
//   valid checksum unless the liar also controls the payload bytes; even
//   then the length is bounded before anything is allocated or read.
//
//   index file     := IndexHeader IndexEntry*   (sidecar, advisory)
//   IndexHeader    := magic "XMITIDX1" | u32 version | u32 flags
//                     | u64 base_seq                       (24 bytes)
//   IndexEntry     := u64 seq | u64 offset | u32 crc32c | u32 zero
//                                                          (24 bytes)
//   The index is a hint, never an authority: every entry is CRC-checked,
//   bounds-checked, and finally verified against the frame it points at
//   before a seek trusts it. Any lie degrades to a linear scan.
//
// The catalog file reuses the same Frame shape under a "XMITCAT1"
// header with seq = 0 and format_id = the described format's id.
//
//   data file      := header "XMITDAT1" (base_seq 1) Frame*  (data_file.hpp)
//   Frames carry seq 1..N in order; format_id 0 marks a serialized
//   format, any other id a wire record of that format.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/limits.hpp"

namespace xmit::storage {

inline constexpr std::size_t kSegmentHeaderBytes = 24;
inline constexpr std::size_t kFrameHeaderBytes = 28;
inline constexpr std::uint32_t kFrameMagic = 0x314C4658;  // "XFL1" LE
inline constexpr std::uint32_t kFormatVersion = 1;

inline constexpr char kSegmentMagic[8] = {'X', 'M', 'I', 'T',
                                          'L', 'O', 'G', '1'};
inline constexpr char kIndexMagic[8] = {'X', 'M', 'I', 'T', 'I', 'D', 'X', '1'};
inline constexpr char kCatalogMagic[8] = {'X', 'M', 'I', 'T',
                                          'C', 'A', 'T', '1'};
inline constexpr char kMetaMagic[8] = {'X', 'M', 'I', 'T', 'M', 'E', 'T', '1'};
inline constexpr char kDataMagic[8] = {'X', 'M', 'I', 'T', 'D', 'A', 'T', '1'};

// Appends a 24-byte segment-style header (any of the magics above).
void append_file_header(ByteBuffer& out, const char (&magic)[8],
                        std::uint64_t base_seq);

// Validates a 24-byte header in `bytes`; returns the base_seq.
Result<std::uint64_t> parse_file_header(std::span<const std::uint8_t> bytes,
                                        const char (&magic)[8]);

// Appends one frame (header + payload slices) to `out`.
void append_frame(ByteBuffer& out, std::uint64_t seq, std::uint64_t format_id,
                  std::span<const IoSlice> payload);
void append_frame(ByteBuffer& out, std::uint64_t seq, std::uint64_t format_id,
                  std::span<const std::uint8_t> payload);

// One parsed frame, viewing the underlying bytes.
struct FrameView {
  std::uint64_t seq = 0;
  std::uint64_t format_id = 0;
  std::span<const std::uint8_t> payload;
  std::size_t next_offset = 0;  // where the following frame starts
};

// Checks the fixed header at the front of `frame` — magic, and the
// declared payload length against the frame budget — and returns the
// whole frame's size, header included; `offset` only names the frame in
// errors. A streaming reader calls this on a frame's first
// kFrameHeaderBytes to size its read before it allocates. Error classes
// as parse_frame's.
Result<std::size_t> frame_size(std::span<const std::uint8_t> frame,
                               std::uint64_t offset,
                               const DecodeLimits& limits);

// Parses the frame at byte offset `at`. Error classes: kOutOfRange means
// no complete frame is present (a torn tail); kMalformedInput /
// kResourceExhausted mean a present frame lies (bad magic, CRC mismatch,
// length over budget).
Result<FrameView> parse_frame(std::span<const std::uint8_t> bytes,
                              std::size_t at, const DecodeLimits& limits);

// Why a segment scan stopped where it did.
enum class ScanStop : std::uint8_t {
  kEnd,        // clean end: every byte belonged to a valid frame
  kTornTail,   // trailing partial frame (crash artifact); valid_bytes is
               // the safe truncation point
  kCorrupt,    // a fully-present frame with a bad magic, CRC or sequence
               // — not a crash artifact; do not silently truncate
  kCallerStop, // the callback asked to stop early
  kLimit,      // a frame exceeded DecodeLimits (typed refusal, no alloc)
};

struct ScanResult {
  std::size_t frames = 0;
  std::uint64_t first_seq = 0;  // 0 when frames == 0
  std::uint64_t last_seq = 0;
  std::size_t valid_bytes = 0;  // bytes covered by header + valid frames
  ScanStop stop = ScanStop::kEnd;
  Status error;  // non-OK for kCorrupt / kLimit, with the reason
};

// Called once per valid frame, in file order. Returning false stops the
// scan (ScanStop::kCallerStop) without error.
using FrameFn = std::function<bool(std::uint64_t seq, std::uint64_t format_id,
                                   std::span<const std::uint8_t> payload,
                                   std::size_t frame_offset)>;

// Scans one segment image (header + frames). Sequence numbers must be
// strictly increasing and, when base_seq != 0, start at base_seq; a
// violation is corruption (an index pointing into such a file would
// otherwise alias records). Tolerates an absent/short header only as a
// torn tail when `bytes` is shorter than a header; a present-but-wrong
// header is corruption.
ScanResult scan_segment(std::span<const std::uint8_t> bytes,
                        const DecodeLimits& limits, const FrameFn& on_frame,
                        const char (&magic)[8] = kSegmentMagic);

inline constexpr std::size_t kIndexEntryBytes = 24;

struct IndexEntry {
  std::uint64_t seq = 0;
  std::uint64_t offset = 0;
};

// Appends one CRC-protected index entry.
void append_index_entry(ByteBuffer& out, const IndexEntry& entry);

// Parses an index image against the segment it describes. Every entry is
// CRC-checked, bounds-checked against `segment`, and verified to point
// at a fully intact frame (header, CRC and payload) carrying exactly the
// indexed seq. Returns only the entries that survive; the first lie
// discards the rest (the scan fallback covers them). Never fails hard —
// a bad index is merely useless.
std::vector<IndexEntry> parse_index(std::span<const std::uint8_t> index_bytes,
                                    std::span<const std::uint8_t> segment,
                                    std::uint64_t base_seq,
                                    const DecodeLimits& limits);

// Human-readable name for diagnostics ("torn-tail", "corrupt", ...).
const char* scan_stop_name(ScanStop stop);

}  // namespace xmit::storage
