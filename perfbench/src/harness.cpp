#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // exec, so it would report the launching script's peak if that was
  // larger. VmHWM belongs to this process image alone.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(status);
  return kib / 1024.0;
}

namespace {

double interpolate(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

Summary Samples::summary() const {
  Summary s;
  s.n = values_.size();
  if (values_.empty()) return s;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t trim = sorted.size() / 10;
  double kept = 0;
  for (std::size_t i = trim; i < sorted.size() - trim; ++i) kept += sorted[i];
  s.tmean = kept / static_cast<double>(sorted.size() - 2 * trim);
  s.median = interpolate(sorted, 0.5);
  s.q1 = interpolate(sorted, 0.25);
  s.q3 = interpolate(sorted, 0.75);
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(sorted.size())));
  s.p99 = sorted[std::min(std::max<std::size_t>(rank, 1), sorted.size()) - 1];
  s.min = sorted.front();
  s.max = sorted.back();
  return s;
}

void RateWindows::start() {
  window_start_ = now_ns();
  window_cpu_ = cpu_seconds();
  records_ = bytes_ = 0;
}

void RateWindows::maybe_close() {
  const std::int64_t now = now_ns();
  if (static_cast<double>(now - window_start_) >= kWindowNs) close_window(now);
}

void RateWindows::close_window(std::int64_t now) {
  const double cpu = cpu_seconds();
  const double wall_s = static_cast<double>(now - window_start_) * 1e-9;
  if (records_ > 0 && wall_s > 0) {
    const auto n = static_cast<double>(records_);
    records_per_s.add(n / wall_s);
    mb_per_s.add(static_cast<double>(bytes_) / wall_s / 1e6);
    cpu_us_per_record.add((cpu - window_cpu_) * 1e6 / n);
  }
  total_records += records_;
  records_ = bytes_ = 0;
  window_start_ = now;
  window_cpu_ = cpu;
}

void RateWindows::finish() {
  const std::int64_t now = now_ns();
  // A short tail window is too noisy to rank; fold its count into the
  // total only.
  if (static_cast<double>(now - window_start_) >= kWindowNs / 2) {
    close_window(now);
  } else {
    total_records += records_;
    records_ = bytes_ = 0;
  }
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
}

void CpuRotation::pin(std::size_t step) {
  if (!cpus_.empty()) apply({cpus_[step % cpus_.size()]});
}

void CpuRotation::release() { apply(cpus_); }

void CpuRotation::apply(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  // Every thread alive now; threads started later inherit their
  // creator's set.
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const auto tid = static_cast<pid_t>(std::atol(task.path().filename().c_str()));
    if (tid > 0) ::sched_setaffinity(tid, sizeof(set), &set);
  }
}

void Tracer::synthetic(const char* name, std::uint64_t record, int parent,
                       std::int64_t duration_ns, std::uint32_t allocs) {
  if (parent < 0 || spans_.size() >= spans_.capacity()) return;
  const Span& host = spans_[static_cast<std::size_t>(parent)];
  Span span;
  span.name = name;
  span.parent = parent;
  span.record = record;
  span.start_ns = host.start_ns;
  span.end_ns = host.start_ns + duration_ns;
  span.allocs = allocs;
  span.synthetic = true;
  spans_.push_back(span);
}

std::vector<double> self_times_ns(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    self[static_cast<std::size_t>(span.parent)] -=
        static_cast<double>(span.end_ns - span.start_ns);
  }
  return self;
}

void SpanLog::add(const std::vector<Span>& slice, bool filled) {
  const std::vector<double> self = self_times_ns(slice);
  std::map<std::string, Samples> by_name;
  for (std::size_t i = 0; i < slice.size(); ++i) {
    Layer& layer = layers_[slice[i].name];
    layer.allocs += slice[i].allocs;
    ++layer.count;
    by_name[slice[i].name].add(self[i]);
  }
  for (const auto& [name, values] : by_name)
    layers_[name].slice_median_ns.add(values.median());
  const auto base = static_cast<std::int32_t>(kept_.size());
  for (std::size_t i = 0; i < std::min(keep_, slice.size()); ++i) {
    Span span = slice[i];
    if (span.parent >= 0) span.parent += base;
    kept_.push_back(span);
  }
  if (filled) ++filled_;
}

double SpanLog::self_ns(const std::string& name) const {
  const auto it = layers_.find(name);
  return it == layers_.end() ? 0.0 : it->second.slice_median_ns.trimmed_mean();
}

double SpanLog::allocs_per_span(const std::string& name) const {
  const auto it = layers_.find(name);
  return it == layers_.end()
             ? 0.0
             : it->second.allocs / static_cast<double>(it->second.count);
}

std::uint64_t SpanLog::count(const std::string& name) const {
  const auto it = layers_.find(name);
  return it == layers_.end() ? 0 : it->second.count;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 const char* label) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "# %s\nid\tname\tstart_ns\tend_ns\tparent\trecord\tallocs\n",
               label);
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file, "%zu\t%s%s\t%lld\t%lld\t%d\t%llu\t%u\n", i, s.name,
                 s.synthetic ? "*" : "",
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin), s.parent,
                 static_cast<unsigned long long>(s.record), s.allocs);
  }
  return std::fclose(file) == 0;
}

void Ledger::fail(const std::string& what) {
  const std::uint64_t n = failed_.fetch_add(1) + 1;
  if (n <= 10) std::fprintf(stderr, "perfbench FAILURE: %s\n", what.c_str());
  if (n == 10) std::fprintf(stderr, "perfbench: further failures not shown\n");
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::dist(const std::string& name, const Samples& samples,
                  const std::string& unit) {
  dists_.push_back({name, unit, samples.summary()});
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace perfbench
