// PBIO data files: "encoding application data structures ... so that they
// may be ... written to data files in a heterogeneous computing
// environment" (paper §3.2).
//
// A data file is one storage segment (framing.hpp) under an "XMITDAT1"
// header. Its frames carry seq 1..N in order. A frame whose format_id is
// 0 holds one serialized format (pbio/format_wire); every other frame
// holds one complete wire record of the format its format_id names.
// Every format appears before the first record that uses it, so a reader
// can stream the file on any architecture and decode with full metadata
// — the file is self-describing — and every frame is CRC-checked.
#pragma once

#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/limits.hpp"
#include "pbio/encode.hpp"
#include "pbio/registry.hpp"

namespace xmit::storage {

class FileSink {
 public:
  static Result<FileSink> create(const std::string& path);

  FileSink(FileSink&&) = default;
  FileSink& operator=(FileSink&&) = default;

  // Encodes `record` with `encoder` and appends it, emitting the format
  // frame first if this format has not been written yet.
  Status write(const pbio::Encoder& encoder, const void* record);

  // Appends an already-encoded wire record belonging to `format`.
  Status write_encoded(const pbio::Format& format,
                       std::span<const std::uint8_t> record);

  Status flush();

 private:
  explicit FileSink(std::FILE* file) : file_(file, &std::fclose) {}

  Status ensure_format_written(const pbio::Format& format);
  Status write_frame(std::uint64_t format_id,
                     std::span<const IoSlice> payload);

  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file_;
  std::set<pbio::FormatId> written_formats_;
  std::uint64_t next_seq_ = 1;
  // Reused across writes.
  ByteBuffer frame_;
  ByteBuffer scratch_;
  std::vector<IoSlice> slices_;
};

class FileSource {
 public:
  // Opens the file and registers every format frame it encounters into
  // `registry` as it streams (formats precede their records).
  static Result<FileSource> open(const std::string& path,
                                 pbio::FormatRegistry& registry);

  FileSource(FileSource&&) = default;
  FileSource& operator=(FileSource&&) = default;

  // Next data record (raw wire bytes, decodable via Decoder), or nullopt
  // at end of file. The span views a buffer the next call reuses, so a
  // file streams in one frame's worth of memory. A file that ends inside
  // a frame is an error, never a silent end.
  Result<std::optional<std::span<const std::uint8_t>>> next_record();

  // Budget for every frame (max_message_bytes) and for the file's
  // embedded format metadata — a data file is untrusted input like any
  // wire peer.
  void set_limits(const DecodeLimits& limits) { limits_ = limits; }

  std::size_t records_read() const { return records_read_; }
  std::size_t formats_read() const { return formats_read_; }

 private:
  FileSource(std::FILE* file, pbio::FormatRegistry& registry)
      : file_(file, &std::fclose), registry_(&registry) {}

  Status read_exact(std::uint8_t* into, std::size_t n);

  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file_;
  std::uint64_t file_bytes_ = 0;  // size at open
  std::uint64_t offset_ = 0;  // of the next frame
  std::uint64_t next_seq_ = 1;
  pbio::FormatRegistry* registry_;
  DecodeLimits limits_ = DecodeLimits::defaults();
  std::vector<std::uint8_t> frame_;  // the current frame, reused
  std::size_t records_read_ = 0;
  std::size_t formats_read_ = 0;
};

}  // namespace xmit::storage
