#include "storage/data_file.hpp"

#include <sys/stat.h>

#include "pbio/format_wire.hpp"
#include "storage/framing.hpp"

namespace xmit::storage {
namespace {

// The format_id that marks a frame of serialized format metadata; no
// registered format hashes to it (pbio/format.cpp).
constexpr std::uint64_t kFormatFrameId = 0;

}  // namespace

Result<FileSink> FileSink::create(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr)
    return Status(ErrorCode::kIoError, "cannot create '" + path + "'");
  FileSink sink(file);
  append_file_header(sink.frame_, kDataMagic, sink.next_seq_);
  if (std::fwrite(sink.frame_.data(), 1, sink.frame_.size(), file) !=
      sink.frame_.size())
    return Status(ErrorCode::kIoError, "cannot write data file header");
  return sink;
}

Status FileSink::write_frame(std::uint64_t format_id,
                             std::span<const IoSlice> payload) {
  frame_.clear();
  append_frame(frame_, next_seq_, format_id, payload);
  if (std::fwrite(frame_.data(), 1, frame_.size(), file_.get()) !=
      frame_.size())
    return make_error(ErrorCode::kIoError, "short write to data file");
  ++next_seq_;
  return Status::ok();
}

Status FileSink::ensure_format_written(const pbio::Format& format) {
  if (written_formats_.contains(format.id())) return Status::ok();
  const std::vector<std::uint8_t> blob = pbio::serialize_format(format);
  const IoSlice slice{blob.data(), blob.size()};
  XMIT_RETURN_IF_ERROR(
      write_frame(kFormatFrameId, std::span<const IoSlice>(&slice, 1)));
  written_formats_.insert(format.id());
  return Status::ok();
}

Status FileSink::write(const pbio::Encoder& encoder, const void* record) {
  XMIT_RETURN_IF_ERROR(ensure_format_written(encoder.format()));
  XMIT_RETURN_IF_ERROR(encoder.encode_iov(record, scratch_, slices_));
  return write_frame(encoder.format().id(), slices_);
}

Status FileSink::write_encoded(const pbio::Format& format,
                               std::span<const std::uint8_t> record) {
  XMIT_RETURN_IF_ERROR(ensure_format_written(format));
  const IoSlice slice{record.data(), record.size()};
  return write_frame(format.id(), std::span<const IoSlice>(&slice, 1));
}

Status FileSink::flush() {
  if (std::fflush(file_.get()) != 0)
    return make_error(ErrorCode::kIoError, "flush failed");
  return Status::ok();
}

Result<FileSource> FileSource::open(const std::string& path,
                                    pbio::FormatRegistry& registry) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr)
    return Status(ErrorCode::kIoError, "cannot open '" + path + "'");
  FileSource source(file, registry);
  struct stat st{};
  if (::fstat(::fileno(file), &st) != 0)
    return Status(ErrorCode::kIoError, "cannot stat '" + path + "'");
  source.file_bytes_ = static_cast<std::uint64_t>(st.st_size);
  std::uint8_t header[kSegmentHeaderBytes];
  const std::size_t got = std::fread(header, 1, sizeof(header), file);
  XMIT_ASSIGN_OR_RETURN(const std::uint64_t base_seq,
                        parse_file_header({header, got}, kDataMagic));
  if (base_seq != 1)
    return Status(ErrorCode::kMalformedInput,
                  "data file '" + path + "' does not start at seq 1");
  source.offset_ = got;
  return source;
}

Status FileSource::read_exact(std::uint8_t* into, std::size_t n) {
  if (std::fread(into, 1, n, file_.get()) != n)
    return Status(ErrorCode::kIoError, "short read from data file");
  offset_ += n;
  return Status::ok();
}

Result<std::optional<std::span<const std::uint8_t>>>
FileSource::next_record() {
  for (;;) {
    if (offset_ == file_bytes_)
      return std::optional<std::span<const std::uint8_t>>{};
    // The header sizes the frame. Its declared length is bounded by the
    // frame budget (frame_size) and then by the bytes left in the file
    // before the buffer grows to hold it.
    const std::uint64_t frame_offset = offset_;
    const std::uint64_t left = file_bytes_ - offset_;
    if (left < kFrameHeaderBytes)
      return Status(ErrorCode::kOutOfRange,
                    "data file ends inside the frame header at offset " +
                        std::to_string(frame_offset));
    if (frame_.size() < kFrameHeaderBytes) frame_.resize(kFrameHeaderBytes);
    XMIT_RETURN_IF_ERROR(read_exact(frame_.data(), kFrameHeaderBytes));
    XMIT_ASSIGN_OR_RETURN(const std::size_t size,
                          frame_size(frame_, frame_offset, limits_));
    if (size > left)
      return Status(ErrorCode::kOutOfRange,
                    "data file ends inside the frame at offset " +
                        std::to_string(frame_offset));
    frame_.resize(size);
    XMIT_RETURN_IF_ERROR(read_exact(frame_.data() + kFrameHeaderBytes,
                                    size - kFrameHeaderBytes));
    auto frame = parse_frame(frame_, 0, limits_);  // verifies the CRC
    if (!frame.is_ok())
      return Status(frame.code(), "data file frame at offset " +
                                      std::to_string(frame_offset) + ": " +
                                      frame.message());
    const FrameView& view = frame.value();
    if (view.seq != next_seq_)
      return Status(ErrorCode::kMalformedInput,
                    "data file frame at offset " +
                        std::to_string(frame_offset) + " carries seq " +
                        std::to_string(view.seq) + " where " +
                        std::to_string(next_seq_) + " was required");
    ++next_seq_;
    if (view.format_id != kFormatFrameId) {
      ++records_read_;
      return std::optional<std::span<const std::uint8_t>>(view.payload);
    }
    XMIT_ASSIGN_OR_RETURN(auto format,
                          pbio::deserialize_format(view.payload, limits_));
    XMIT_RETURN_IF_ERROR(registry_->adopt(std::move(format)).status());
    ++formats_read_;
  }
}

}  // namespace xmit::storage
