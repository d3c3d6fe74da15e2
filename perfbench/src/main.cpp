// xmit_perfbench: one workload of the XMIT message-path benchmark.
//
//   xmit_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--workdir DIR] [--spans-dir DIR] [--record FILE]
//                  [--commit ID]
//
// Prints a human-readable report (environment, distributions, metrics,
// error rate), then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit status is 0 only when every check passed.
#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "hydrology/messages.hpp"
#include "net/http.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "xmit_perfbench: %s\n"
               "usage: xmit_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--spans-dir DIR] [--record FILE] "
               "[--commit ID]\n",
               why);
  return 2;
}

std::string kernel() {
  utsname u{};
  if (::uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release + " " + u.machine;
}

struct Environment {
  std::string commit;
  std::string json(const RunOptions& o) const {
    std::string out = "{";
    out += "\"commit\": " + json_string(commit);
    out += ", \"compiler\": " + json_string(PERFBENCH_COMPILER);
    out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
    out += ", \"cores\": " +
           std::to_string(std::thread::hardware_concurrency());
    out += ", \"kernel\": " + json_string(kernel());
    out += ", \"workload\": " + json_string(o.workload);
    out += ", \"seed\": " + std::to_string(o.seed);
    out += ", \"seconds\": " + json_number(o.seconds);
    out += ", \"trace\": " + std::string(o.trace ? "1" : "0");
    return out + "}";
  }
};

std::string summary_json(const Summary& s) {
  return "{\"n\": " + std::to_string(s.n) +
         ", \"tmean\": " + json_number(s.tmean) +
         ", \"median\": " + json_number(s.median) +
         ", \"q1\": " + json_number(s.q1) + ", \"q3\": " + json_number(s.q3) +
         ", \"p99\": " + json_number(s.p99) +
         ", \"min\": " + json_number(s.min) +
         ", \"max\": " + json_number(s.max) + "}";
}

std::string metrics_json(const Report& report) {
  std::string out = "{";
  bool first = true;
  for (const auto& m : report.metrics()) {
    out += first ? "" : ", ";
    first = false;
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  Environment env;
  std::string record_path;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0 && options.seconds <= 120;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (arg == "--workdir") {
      options.workdir = value;
    } else if (arg == "--spans-dir") {
      options.spans_dir = value;
    } else if (arg == "--record") {
      record_path = value;
    } else if (arg == "--commit") {
      env.commit = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");
  if (!known_workload(options.workload))
    return usage(("unknown workload " + options.workload).c_str());
  if (options.workdir.empty()) options.workdir = "perfbench-work";
  if (env.commit.empty()) env.commit = "unknown";

  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);
  if (ec) return usage(("cannot create workdir " + options.workdir).c_str());
  if (!options.spans_dir.empty())
    std::filesystem::create_directories(options.spans_dir, ec);

  // The "remote" schema server of the paper's discovery step.
  auto server = xmit::net::HttpServer::start();
  if (!server.is_ok()) {
    std::fprintf(stderr, "xmit_perfbench: HttpServer: %s\n",
                 server.status().to_string().c_str());
    return 3;
  }
  server.value()->put_document("/formats/hydrology.xsd",
                               xmit::hydrology::hydrology_schema_xml());

  HostFormats host;
  RunContext context{options, host,
                     server.value()->url_for("/formats/hydrology.xsd"), {}, {}};
  run_workload(context);
  server.value()->stop();
  std::filesystem::remove_all(options.workdir, ec);

  const Report& report = context.report;
  const std::uint64_t attempted = std::max<std::uint64_t>(context.ledger.attempted(), 1);
  const std::uint64_t failed = context.ledger.failed();
  const bool correct = failed == 0;
  const double error_rate =
      static_cast<double>(failed) / static_cast<double>(attempted);

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  const std::string env_json = env.json(options);
  std::printf("env %s\n", env_json.c_str());
  for (const auto& d : report.dists())
    std::printf(
        "dist %-22s %-10s n=%zu tmean=%.6g median=%.6g q1=%.6g q3=%.6g "
        "p99=%.6g\n",
        d.name.c_str(), d.unit.c_str(), d.summary.n, d.summary.tmean,
        d.summary.median, d.summary.q1, d.summary.q3, d.summary.p99);
  for (const auto& m : report.metrics())
    std::printf("metric %-32s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  for (const auto& n : report.notes()) std::printf("note %s\n", n.c_str());
  std::printf("error_rate %.6g (%llu failed / %llu attempted)\n", error_rate,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  if (!record_path.empty()) {
    std::string dists = "{";
    for (std::size_t i = 0; i < report.dists().size(); ++i) {
      const auto& d = report.dists()[i];
      dists += (i ? ", " : "") + json_string(d.name) +
               ": {\"unit\": " + json_string(d.unit) +
               ", \"summary\": " + summary_json(d.summary) + "}";
    }
    dists += "}";
    const std::string record =
        "{\"env\": " + env_json + ", \"correct\": " +
        (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) +
        ", \"error_rate\": " + json_number(error_rate) +
        ", \"metrics\": " + metrics_json(report) +
        ", \"distributions\": " + dists + "}\n";
    if (std::FILE* file = std::fopen(record_path.c_str(), "w")) {
      std::fwrite(record.data(), 1, record.size(), file);
      std::fclose(file);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(report).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
