// The benchmark's inputs: seeded pools of Hydrology records (paper §4.5),
// the schedule that orders them into a stream, the compiled-in formats a
// receiver decodes into, and the correctness oracle.
//
// Every record carries its stream index in one field (its stamp), so the
// receiver checks order as well as content: record i must equal pool
// entry schedule[i] with the stamp set to i, field by field.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "hydrology/messages.hpp"
#include "pbio/decode.hpp"
#include "pbio/encode.hpp"
#include "pbio/registry.hpp"

namespace perfbench {

namespace hy = xmit::hydrology;

enum class Kind : std::uint8_t {
  kControl,  // ControlEvent, 12 B
  kGrid,     // GridSpec, 20 B
  kStat,     // StatSummary, 44 B
  kVis,      // Vis5dFrame, 152 B
  kJoin,     // JoinRequest, string-bearing
};
constexpr std::size_t kKindCount = 5;
const char* kind_name(Kind kind);
inline std::size_t index_of(Kind kind) { return static_cast<std::size_t>(kind); }

// Host-layout storage for any Hydrology record.
union AnyRecord {
  hy::ControlEvent control;
  hy::GridSpec grid;
  hy::StatSummary stat;
  hy::Vis5dFrame vis;
  hy::JoinRequest join;
};

// The replay subscriber's superset view of StatSummary and Vis5dFrame:
// one receiver format for a mixed log, filled by name matching (fields a
// record lacks decode as zero — PBIO's restricted evolution).
struct DurableView {
  std::int32_t timestep;
  std::int32_t cells;
  float min;
  float max;
  float mean;
  float stddev;
  float total;
  float corners[4];
  std::int32_t levels_used;
  float levels[36];
};

// Sets the stamp field of `record` to stream index `index`.
void stamp(Kind kind, AnyRecord& record, std::uint64_t index);
// Deep equality: scalars exactly, strings and arrays by content.
bool same(Kind kind, const AnyRecord& a, const AnyRecord& b);
// In-memory payload bytes: fields plus out-of-line arrays and strings,
// pointers, headers and metadata excluded.
std::size_t payload_bytes(Kind kind, const AnyRecord& record);
// DurableView of a StatSummary or Vis5dFrame record.
DurableView durable_view_of(Kind kind, const AnyRecord& record);
bool same_view(const DurableView& a, const DurableView& b);

struct Entry {
  Kind kind = Kind::kControl;
  AnyRecord record{};
  std::size_t payload = 0;
};

class Pool {
 public:
  explicit Pool(std::uint64_t seed) : rng_(seed) {}
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  std::size_t add_small(Kind kind);

  // Entry order; the stream repeats it with period schedule.size().
  std::vector<std::uint32_t> schedule;
  const Entry& at(std::uint64_t index) const {
    return entries_[schedule[index % schedule.size()]];
  }
  Entry& at(std::uint64_t index) {
    return entries_[schedule[index % schedule.size()]];
  }
  xmit::Rng& rng() { return rng_; }

 private:
  xmit::Rng rng_;
  std::vector<Entry> entries_;
  std::deque<std::string> strings_;  // stable addresses for char*
};

// Compiled-in formats (the classic PBIO receiver's tables), registered
// once per process; records decode into these.
class HostFormats {
 public:
  HostFormats();
  const xmit::pbio::FormatPtr& of(Kind kind) const {
    return formats_[index_of(kind)];
  }
  const xmit::pbio::Encoder& encoder(Kind kind) const {
    return *encoders_[index_of(kind)];
  }
  const xmit::pbio::FormatPtr& durable_view() const { return durable_view_; }

  // Sender-format id -> kind.
  std::optional<Kind> kind_of(xmit::pbio::FormatId id) const;

 private:
  xmit::pbio::FormatRegistry registry_;
  xmit::pbio::FormatPtr formats_[kKindCount];
  std::optional<xmit::pbio::Encoder> encoders_[kKindCount];
  xmit::pbio::FormatPtr durable_view_;
  std::vector<std::pair<xmit::pbio::FormatId, Kind>> ids_;
};

// The Fig. 7 invariant: a format discovered via XMIT has the compiled-in
// format's id and encodes `sample` to identical wire bytes.
xmit::Status check_fig7(Kind kind, const xmit::pbio::FormatPtr& discovered,
                        const HostFormats& host, const AnyRecord& sample);

// Oracle: the compiled decode equals the reference interpreter on `bytes`.
xmit::Status check_reference(const xmit::pbio::Decoder& decoder,
                             std::span<const std::uint8_t> bytes, Kind kind,
                             const HostFormats& host);

}  // namespace perfbench
