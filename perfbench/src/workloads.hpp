// The two workloads. Each one runs its phases, checks every delivered
// record, and files end-to-end metrics (untraced run) or per-layer
// metrics (traced run) into the report.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"
#include "hydro.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;    // scratch space for durable logs (removed after)
  std::string spans_dir;  // traced runs write their spans here ("" = don't)
};

struct RunContext {
  RunOptions options;
  HostFormats& host;
  std::string schema_url;  // the Hydrology schema on the local HttpServer
  Ledger ledger;
  Report report;
};

// small_mixed or durable_fc.
bool known_workload(const std::string& name);

// Runs context.options.workload, which must be a known workload.
void run_workload(RunContext& context);

}  // namespace perfbench
