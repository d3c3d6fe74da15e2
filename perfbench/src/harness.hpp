// Measurement machinery shared by every workload: sample summaries,
// windowed rates, spans, the failure ledger and the result report.
//
// Nothing here reaches inside the XMIT libraries. Every timing is taken
// around a public call the benchmark itself makes, and every count comes
// from a public counter (or from the benchmark's own operator new).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();

// Process user+system CPU seconds (getrusage, all threads).
double cpu_seconds();

// Process peak resident set size in MB (VmHWM).
double peak_rss_mb();

// Heap allocations made through operator new since process start
// (alloc.cpp replaces the global operators with counting shims).
std::uint64_t allocations();

struct Summary {
  std::size_t n = 0;
  double tmean = 0;  // mean of the middle 80 % (10 % trimmed each side)
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  double p99 = 0;
  double min = 0;
  double max = 0;
};

class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }
  // Quartiles interpolate linearly between order statistics; p99 is the
  // order statistic at rank ceil(0.99 n).
  Summary summary() const;
  double median() const { return summary().median; }
  // The centre every end-to-end metric reports. A shared host's cores
  // each flip between a fast and a slow state, so a run's samples come
  // from two modes: their median jumps from one mode to the other as
  // their shares pass one half, while the trimmed mean moves in step
  // with the shares and still ignores the rare stall.
  double trimmed_mean() const { return summary().tmean; }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }

 private:
  std::vector<double> values_;
};

// Closed-loop throughput measured in fixed wall-clock windows: rates are
// reported as the trimmed mean over windows, so one stalled window (a
// neighbour's burst on a shared core) is dropped instead of weighing by
// its whole duration.
class RateWindows {
 public:
  void start();
  // Call after every delivered record; cheap except at window edges.
  void record(std::size_t payload_bytes) {
    ++records_;
    bytes_ += payload_bytes;
    if ((records_ & 15) == 0) maybe_close();
  }
  void finish();  // closes the last partial window if it is long enough

  Samples records_per_s;
  Samples mb_per_s;
  Samples cpu_us_per_record;
  std::uint64_t total_records = 0;

 private:
  void maybe_close();
  void close_window(std::int64_t now);

  static constexpr double kWindowNs = 50e6;  // 50 ms
  std::int64_t window_start_ = 0;
  double window_cpu_ = 0;
  std::uint64_t records_ = 0;  // in the open window
  std::uint64_t bytes_ = 0;
};

// Moves every thread of the process, and so the threads they start, onto
// one CPU at a time. The threads of a phase then hand off to each other
// on one core, never through a wake-up on another (which on a VM goes
// through the hypervisor), and stepping through the CPUs phase by phase
// makes a run sample every core's state instead of the one it was
// scheduled on.
class CpuRotation {
 public:
  CpuRotation();  // the CPUs the process may run on now
  void pin(std::size_t step);  // to the step-th CPU, modulo their count
  void release();              // back to every CPU of the start

 private:
  void apply(const std::vector<int>& cpus);
  std::vector<int> cpus_;
};

// One span around a public call, kept in memory and written out at the
// end of the run. `synthetic` marks a child whose duration was measured
// by a separate call on the same input (e.g. the encode inside send):
// it lies within its parent and is subtracted from the parent's self
// time.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t record = 0;
  std::uint32_t allocs = 0;
  bool synthetic = false;
};

class Tracer {
 public:
  // capacity 0 = tracing off: begin() returns -1 and costs one branch.
  explicit Tracer(std::size_t capacity = 0) { spans_.reserve(capacity); }
  bool on() const { return spans_.capacity() > 0; }
  bool full() const { return on() && spans_.size() == spans_.capacity(); }

  int begin(const char* name, std::uint64_t record, int parent = -1) {
    if (spans_.size() >= spans_.capacity()) return -1;
    Span span;
    span.name = name;
    span.parent = parent;
    span.record = record;
    span.allocs = static_cast<std::uint32_t>(allocations());
    span.start_ns = now_ns();
    spans_.push_back(span);
    return static_cast<int>(spans_.size() - 1);
  }
  void end(int id) {
    if (id < 0) return;
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = now_ns();
    span.allocs = static_cast<std::uint32_t>(allocations()) - span.allocs;
  }
  // Ends span `from` and begins `name` (unless null) at the same instant:
  // adjacent spans share one clock read.
  int handoff(int from, const char* name, std::uint64_t record, int parent) {
    if (from < 0 && (name == nullptr || spans_.size() >= spans_.capacity()))
      return -1;
    const std::int64_t now = now_ns();
    const auto allocs = static_cast<std::uint32_t>(allocations());
    if (from >= 0) {
      Span& done = spans_[static_cast<std::size_t>(from)];
      done.end_ns = now;
      done.allocs = allocs - done.allocs;
    }
    if (name == nullptr || spans_.size() >= spans_.capacity()) return -1;
    Span span;
    span.name = name;
    span.parent = parent;
    span.record = record;
    span.allocs = allocs;
    span.start_ns = now;
    spans_.push_back(span);
    return static_cast<int>(spans_.size() - 1);
  }
  void synthetic(const char* name, std::uint64_t record, int parent,
                 std::int64_t duration_ns, std::uint32_t allocs);

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span> take() { return std::move(spans_); }

 private:
  std::vector<Span> spans_;
};

// Self time of every span: its duration minus what its children cover.
std::vector<double> self_times_ns(const std::vector<Span>& spans);

// The spans of many slices, folded in slice by slice so that every
// record of a traced slice can be traced while memory stays bounded. The
// first `keep` spans of each slice are kept for writing out (parents
// re-based); of each span name, the slice's median self time is kept.
// Counts and allocations cover every span.
class SpanLog {
 public:
  explicit SpanLog(std::size_t keep) : keep_(keep) {}
  // `filled`: the slice's buffer ran out of room before the slice ended.
  void add(const std::vector<Span>& slice, bool filled);

  struct Layer {
    Samples slice_median_ns;
    double allocs = 0;  // summed over every span of the name
    std::uint64_t count = 0;
  };
  // Self time of the spans named `name` — the trimmed mean over slices of
  // each slice's median, the same centre the end-to-end metrics take —,
  // their mean allocations and their count (0 when there are none).
  double self_ns(const std::string& name) const;
  double allocs_per_span(const std::string& name) const;
  std::uint64_t count(const std::string& name) const;

  const std::vector<Span>& kept() const { return kept_; }
  std::size_t filled_slices() const { return filled_; }

 private:
  std::size_t keep_;
  std::map<std::string, Layer> layers_;
  std::vector<Span> kept_;
  std::size_t filled_ = 0;
};

// Writes spans as TSV (id, name, start, end, parent, record, allocs).
bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 const char* label);

// Failed versus attempted operations, shared by all threads of a run.
// Any failure makes the run incorrect and the command exit non-zero.
class Ledger {
 public:
  void attempt(std::uint64_t n = 1) {
    attempted_.fetch_add(n, std::memory_order_relaxed);
  }
  void fail(const std::string& what);
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
};

// The run's output: named metrics with units, distributions, and notes.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void dist(const std::string& name, const Samples& samples,
            const std::string& unit);
  void note(const std::string& text) { notes_.push_back(text); }

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Metric>& metrics() const { return metrics_; }
  struct Dist {
    std::string name;
    std::string unit;
    Summary summary;
  };
  const std::vector<Dist>& dists() const { return dists_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<Dist> dists_;
  std::vector<std::string> notes_;
};

// Full-precision JSON number (%.17g; non-finite values become null).
std::string json_number(double value);
std::string json_string(const std::string& text);

}  // namespace perfbench
