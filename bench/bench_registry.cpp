// Registry at scale (DESIGN.md §5k): what sharding, bounded plan caching
// and batched discovery buy once the format population reaches the
// thousands.
//
//   register_throughput  N formats registered across 1/4/8 threads, for
//                        the sharded registry vs a single-mutex baseline
//                        (the pre-§5k design, rebuilt here so the two can
//                        be raced on the same hardware forever).
//   by_id_throughput     steady-state lookup rate against a 10k-format
//                        population at 1/4/8 threads, same comparison.
//                        The sharded path locks only the id's shard.
//   plan_cache           one decode, cold (plan compiled) vs warm (plan
//                        cached) vs evicting (budget of 1 entry forces a
//                        rebuild every call — the worst case the cache
//                        budget can inflict).
//   discovery            resolving a set of unknown formats over HTTP:
//                        one round trip per format (the paper's RDM, paid
//                        per schema) vs one batched set fetch.
//
// Gate the scaling rows in CI with
//   tools/bench_compare.py base/ cur/ --check 'registry/scaling/*'
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "common/arena.hpp"
#include "common/clock.hpp"
#include "net/http.hpp"
#include "pbio/decode.hpp"
#include "pbio/dynrecord.hpp"
#include "pbio/registry.hpp"
#include "xmit/format_service.hpp"

namespace xmit::bench {
namespace {

// The registry design §5k replaced: every operation under one mutex. Kept
// here (not in src/) purely as the measured baseline.
class MutexRegistry {
 public:
  Result<pbio::FormatPtr> register_format(std::string name,
                                          std::vector<pbio::IOField> fields,
                                          std::uint32_t struct_size) {
    auto format = pbio::Format::make(name, std::move(fields), struct_size,
                                     pbio::ArchInfo::host());
    if (!format.is_ok()) return format.status();
    pbio::FormatPtr ptr = format.value();
    std::lock_guard<std::mutex> lock(mutex_);
    by_id_.emplace(ptr->id(), ptr);
    by_name_[std::move(name)] = ptr;
    return ptr;
  }

  Result<pbio::FormatPtr> by_id(pbio::FormatId id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = by_id_.find(id);
    if (it == by_id_.end())
      return Status(ErrorCode::kNotFound, "unknown format id");
    return it->second;
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<pbio::FormatId, pbio::FormatPtr> by_id_;
  std::unordered_map<std::string, pbio::FormatPtr> by_name_;
};

std::vector<pbio::IOField> fields_for(std::size_t k) {
  return {{"id", "integer", 4, 0},
          {"step", "integer", 4, 4},
          {"value", "float", 8, 8},
          {"aux" + std::to_string(k % 7), "float", 8, 16}};
}

std::string name_for(std::size_t k) { return "T" + std::to_string(k); }

// Registers [0, total) split across `threads`, returns elapsed seconds.
template <typename Registry>
double register_storm_s(Registry& registry, std::size_t total, int threads) {
  std::vector<std::thread> workers;
  std::atomic<bool> go{false};
  Stopwatch sw;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {}
      for (std::size_t k = t; k < total; k += threads)
        (void)registry.register_format(name_for(k), fields_for(k), 24);
    });
  }
  sw.reset();
  go.store(true, std::memory_order_release);
  for (auto& worker : workers) worker.join();
  return sw.elapsed_s();
}

// Each thread walks the whole id list `rounds` times; returns aggregate
// lookups per second.
template <typename Registry>
double lookup_rate_per_s(const Registry& registry,
                         const std::vector<pbio::FormatId>& ids, int threads,
                         int rounds) {
  std::vector<std::thread> workers;
  std::atomic<bool> go{false};
  Stopwatch sw;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {}
      // Distinct starting offsets so threads do not stampede one shard.
      const std::size_t start = ids.size() * t / threads;
      for (int r = 0; r < rounds; ++r)
        for (std::size_t i = 0; i < ids.size(); ++i)
          (void)registry.by_id(ids[(start + i) % ids.size()]);
    });
  }
  sw.reset();
  go.store(true, std::memory_order_release);
  for (auto& worker : workers) worker.join();
  return double(ids.size()) * rounds * threads / sw.elapsed_s();
}

struct PlanMessage {
  std::int32_t id;
  std::int32_t n;
  float* data;
};

void bench_plan_cache(Reporter& reporter) {
  pbio::FormatRegistry registry;
  auto host = expect(registry.register_format(
                         "PlanMsg",
                         {{"id", "integer", 4, offsetof(PlanMessage, id)},
                          {"n", "integer", 4, offsetof(PlanMessage, n)},
                          {"data", "float[n]", 4, offsetof(PlanMessage, data)}},
                         sizeof(PlanMessage)),
                     "register PlanMsg");
  pbio::ArchInfo foreign;
  foreign.byte_order = ByteOrder::kBig;
  foreign.pointer_size = 4;
  foreign.long_size = 4;
  foreign.max_align = 8;
  auto sender = expect(
      registry.adopt(expect(pbio::Format::make("PlanMsg",
                                               {{"id", "integer", 4, 0},
                                                {"n", "integer", 4, 4},
                                                {"data", "float[n]", 4, 8}},
                                               12, foreign),
                            "make foreign PlanMsg")),
      "adopt foreign PlanMsg");
  pbio::RecordBuilder builder(sender);
  (void)builder.set_int("id", 7);
  const std::int64_t data[] = {1, 2, 3, 4};
  (void)builder.set_int_array("data", data);
  auto record = expect(builder.build(), "build foreign record");

  Arena arena;
  PlanMessage out{};
  auto decode_with = [&](pbio::Decoder& decoder) {
    arena.reset();
    check(decoder.decode(record, *host, &out, arena), "decode PlanMsg");
  };

  // Cold: a fresh decoder compiles the (sender, receiver) plan each call.
  const double cold_us =
      1e3 * encode_ms([&] {
        pbio::Decoder decoder(registry);
        decode_with(decoder);
      });

  pbio::Decoder warm_decoder(registry);
  decode_with(warm_decoder);
  const double warm_us = 1e3 * encode_ms([&] { decode_with(warm_decoder); });

  // Evicting: a 1-entry budget with two alternating senders rebuilds the
  // plan every call — the floor the cache budget can push a workload to.
  auto sender2 = expect(
      registry.adopt(expect(pbio::Format::make("PlanMsg2",
                                               {{"id", "integer", 4, 0},
                                                {"n", "integer", 4, 4},
                                                {"data", "float[n]", 4, 8}},
                                               12, foreign),
                            "make PlanMsg2")),
      "adopt PlanMsg2");
  auto host2 = expect(registry.register_format(
                          "PlanMsg2",
                          {{"id", "integer", 4, offsetof(PlanMessage, id)},
                           {"n", "integer", 4, offsetof(PlanMessage, n)},
                           {"data", "float[n]", 4,
                            offsetof(PlanMessage, data)}},
                          sizeof(PlanMessage)),
                      "register PlanMsg2");
  pbio::RecordBuilder builder2(sender2);
  (void)builder2.set_int("id", 8);
  (void)builder2.set_int_array("data", data);
  auto record2 = expect(builder2.build(), "build second record");
  pbio::Decoder evicting(registry);
  evicting.set_plan_cache_budget(CacheBudget::of(1, 0));
  const double evict_us = 1e3 * encode_ms([&] {
    arena.reset();
    check(evicting.decode(record, *host, &out, arena), "decode 1");
    arena.reset();
    check(evicting.decode(record2, *host2, &out, arena), "decode 2");
  }) / 2;

  std::printf("%-28s %10.2f us\n", "plan cold (compile + run)", cold_us);
  std::printf("%-28s %10.2f us\n", "plan warm (cached)", warm_us);
  std::printf("%-28s %10.2f us\n", "plan evicting (budget 1)", evict_us);
  reporter.add("plan_cache", "cold", cold_us, "us");
  reporter.add("plan_cache", "warm", warm_us, "us");
  reporter.add("plan_cache", "evicting", evict_us, "us");
}

void bench_discovery(Reporter& reporter) {
  const std::size_t kFormats = smoke() ? 4 : 32;
  pbio::FormatRegistry source;
  std::vector<pbio::FormatId> ids;
  for (std::size_t k = 0; k < kFormats; ++k)
    ids.push_back(expect(source.register_format(name_for(k), fields_for(k), 24),
                         "register source format")
                      ->id());

  auto server = expect(net::HttpServer::start(), "start http server");
  toolkit::FormatPublisher publisher(*server);
  publisher.publish_all(source);
  publisher.serve_set_requests(source);

  const int repeats = smoke() ? 1 : 8;
  auto time_resolution = [&](bool batched) {
    double best = 1e300;
    for (int r = 0; r < repeats; ++r) {
      pbio::FormatRegistry local;
      toolkit::RemoteFormatResolver resolver(publisher.base_url(), local);
      if (batched) resolver.set_batch_url(publisher.set_url());
      Stopwatch sw;
      auto outcome = expect(resolver.resolve_batch(ids), "resolve_batch");
      const double ms = sw.elapsed_ms();
      if (outcome.resolved.size() != ids.size()) {
        std::fprintf(stderr, "FATAL resolved %zu of %zu formats\n",
                     outcome.resolved.size(), ids.size());
        std::abort();
      }
      if (ms < best) best = ms;
    }
    return best;
  };

  const double per_schema_ms = time_resolution(/*batched=*/false);
  const double batched_ms = time_resolution(/*batched=*/true);
  std::printf("%-28s %10.2f ms  (%zu formats, one fetch each)\n",
              "discovery per-schema", per_schema_ms, kFormats);
  std::printf("%-28s %10.2f ms  (one set fetch)\n", "discovery batched",
              batched_ms);
  reporter.add("discovery", "per_schema_ms", per_schema_ms, "ms");
  reporter.add("discovery", "batched_ms", batched_ms, "ms");
  if (batched_ms > 0)
    reporter.add("scaling", "rdm_amortization", per_schema_ms / batched_ms,
                 "x");
}

}  // namespace
}  // namespace xmit::bench

int main() {
  using namespace xmit;
  using namespace xmit::bench;

  print_header("Registry at scale",
               "sharded registry vs single-mutex baseline; plan-cache "
               "budgets; batched discovery (DESIGN.md §5k)");
  Reporter reporter("registry");

  const std::size_t kPopulation = smoke() ? 400 : 10000;
  const int kLookupRounds = smoke() ? 2 : 50;
  std::printf("population: %zu formats, hardware threads: %u\n\n", kPopulation,
              std::thread::hardware_concurrency());

  // --- registration throughput --------------------------------------------
  double mutex_by_threads[9] = {};
  double sharded_by_threads[9] = {};
  for (int threads : {1, 4, 8}) {
    const int repeats = smoke() ? 1 : 3;
    double mutex_s = 1e300, sharded_s = 1e300;
    for (int r = 0; r < repeats; ++r) {
      MutexRegistry baseline;
      mutex_s = std::min(mutex_s,
                         register_storm_s(baseline, kPopulation, threads));
      pbio::FormatRegistry sharded;
      sharded_s = std::min(sharded_s,
                           register_storm_s(sharded, kPopulation, threads));
    }
    mutex_by_threads[threads] = kPopulation / mutex_s / 1000;
    sharded_by_threads[threads] = kPopulation / sharded_s / 1000;
    std::printf("register %dt: mutex %8.1f kformats/s   sharded %8.1f "
                "kformats/s\n",
                threads, mutex_by_threads[threads],
                sharded_by_threads[threads]);
    const std::string point = std::to_string(threads) + "t";
    reporter.add("register_throughput", "mutex_" + point,
                 mutex_by_threads[threads], "kformats/s");
    reporter.add("register_throughput", "sharded_" + point,
                 sharded_by_threads[threads], "kformats/s");
  }
  if (mutex_by_threads[8] > 0)
    reporter.add("scaling", "register_8t_vs_mutex",
                 sharded_by_threads[8] / mutex_by_threads[8], "x");

  // --- steady-state by_id -------------------------------------------------
  {
    MutexRegistry baseline;
    pbio::FormatRegistry sharded;
    std::vector<pbio::FormatId> ids;
    for (std::size_t k = 0; k < kPopulation; ++k) {
      auto format = expect(
          sharded.register_format(bench::name_for(k), bench::fields_for(k), 24),
          "register lookup format");
      (void)expect(baseline.register_format(bench::name_for(k),
                                            bench::fields_for(k), 24),
                   "register baseline format");
      ids.push_back(format->id());
    }
    std::printf("\n");
    for (int threads : {1, 4, 8}) {
      const double mutex_rate =
          lookup_rate_per_s(baseline, ids, threads, kLookupRounds) / 1e6;
      const double sharded_rate =
          lookup_rate_per_s(sharded, ids, threads, kLookupRounds) / 1e6;
      std::printf("by_id %dt @%zu formats: mutex %8.2f M/s   sharded %8.2f "
                  "M/s\n",
                  threads, kPopulation, mutex_rate, sharded_rate);
      const std::string point = std::to_string(threads) + "t";
      reporter.add("by_id_throughput", "mutex_" + point, mutex_rate,
                   "Mlookups/s");
      reporter.add("by_id_throughput", "sharded_" + point, sharded_rate,
                   "Mlookups/s");
      if (threads > 1 && mutex_rate > 0)
        reporter.add("scaling", "by_id_" + point + "_vs_mutex",
                     sharded_rate / mutex_rate, "x");
    }
    std::printf("\n");
  }

  bench::bench_plan_cache(reporter);
  std::printf("\n");
  bench::bench_discovery(reporter);
  return 0;
}
