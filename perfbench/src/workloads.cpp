#include "workloads.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "rig.hpp"
#include "storage/log.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace pbio = xmit::pbio;
namespace session = xmit::session;
using xmit::Status;

// Phases interleave in cycles of this length: a latency slice, a stream
// slice, then one more full set-up, each cycle on the next CPU (see
// CpuRotation). On a shared host each core flips between a fast and a
// slow state (syscalls cost ~1.7x more in the slow one) every second or
// so, independently of the others; short cycles on rotating cores make
// every metric average many of these states instead of a few.
constexpr double kCycleSeconds = 0.2;
// Set-ups before the first cycle; the last one carries the phases.
constexpr int kInitialSetups = 3;
// Spans a traced run writes out per phase, shared out over its slices.
constexpr std::size_t kSpanCapacity = 200000;
// Spans one traced round trip or stream record makes, at most.
constexpr std::size_t kSpansPerRoundTrip = 11;
constexpr std::size_t kSpansPerStreamRecord = 2;

// Span buffer for a traced slice: room for twice the items the untraced
// slice just before it handled, so every item of the slice is traced.
std::size_t slice_capacity(std::uint64_t untraced_items,
                           std::size_t spans_per_item) {
  return 2 * static_cast<std::size_t>(untraced_items) * spans_per_item + 1024;
}

// Every set-up of a run, phase by phase.
struct SetupSeries {
  Samples total_s, fetch_ms, parse_ms, translate_ms, register_ms, bind_us,
      encoder_make_us, open_us, announce_us, first_decode_us, metadata_bytes;

  void add(const SetupTimes& t) {
    total_s.add(t.total_s);
    fetch_ms.add(t.load.fetch_ms);
    parse_ms.add(t.load.parse_ms);
    translate_ms.add(t.load.translate_ms);
    register_ms.add(t.load.register_ms);
    bind_us.add(t.bind_us);
    encoder_make_us.add(t.encoder_make_us);
    open_us.add(t.open_us);
    announce_us.add(t.announce_us);
    first_decode_us.add(t.first_decode_us);
    metadata_bytes.add(static_cast<double>(t.metadata_bytes));
  }
};

struct StreamTotals;

// The per-layer metrics. Every workload reports all of them; a layer the
// workload bypasses reads 0.
struct Layers {
  double fetch_ms = 0, parse_ms = 0, translate_ms = 0, register_ms = 0;
  double bind_us = 0, encoder_make_us = 0, open_us = 0, announce_us = 0;
  double first_decode_us = 0, metadata_bytes = 0;
  double encode_ns = 0, send_ns = 0, recv_ns = 0, by_id_ns = 0, decode_ns = 0;
  double plan_hits = 0, plan_misses = 0;
  double decode_mbps = 0;
  double sends_per_rec = 0, wire_bytes_per_rec = 0;
  double grants_per_krec = 0, send_block_ms = 0, send_queue_peak = 0;
  double wal_bytes_per_rec = 0;
  double storage_open_ms = 0, scan_ns_per_rec = 0, replay_first_ms = 0;
  double batch_records_per_call = 0, batch_ns_per_rec = 0;
  double replay_records_per_s = 0;
  double allocs_per_rec = 0;
  double send_allocs = 0, recv_allocs = 0, decode_allocs = 0,
         encode_allocs = 0;
  double coverage = 0, overhead = 0;

  // Trimmed means over set-ups, as setup_s.
  void from_setups(const SetupSeries& s) {
    fetch_ms = s.fetch_ms.trimmed_mean();
    parse_ms = s.parse_ms.trimmed_mean();
    translate_ms = s.translate_ms.trimmed_mean();
    register_ms = s.register_ms.trimmed_mean();
    bind_us = s.bind_us.trimmed_mean();
    encoder_make_us = s.encoder_make_us.trimmed_mean();
    open_us = s.open_us.trimmed_mean();
    announce_us = s.announce_us.trimmed_mean();
    first_decode_us = s.first_decode_us.trimmed_mean();
    metadata_bytes = s.metadata_bytes.trimmed_mean();
  }

  // Self times and allocations along the round trips of a traced latency
  // phase. Coverage adds up the per-layer figures reported here, each
  // times its spans per round trip, over the untraced round trip
  // (rtt_p50_us): it checks that the printed per-layer figures account for
  // a round trip.
  void from_round_trips(const SpanLog& log, double rtt_p50_us) {
    encode_ns = log.self_ns("pbio.encode");
    send_ns = log.self_ns("session.send");
    recv_ns = log.self_ns("session.recv");
    by_id_ns = log.self_ns("pbio.by_id");
    decode_ns = log.self_ns("pbio.decode");
    send_allocs = log.allocs_per_span("session.send");
    recv_allocs = log.allocs_per_span("session.recv");
    decode_allocs = log.allocs_per_span("pbio.decode");
    encode_allocs = log.allocs_per_span("pbio.encode");
    const auto round_trips = static_cast<double>(log.count("rt"));
    if (round_trips == 0 || rtt_p50_us <= 0) return;
    double path_ns = 0;
    for (const char* layer : {"pbio.encode", "session.send", "session.recv",
                              "pbio.by_id", "pbio.decode"})
      path_ns += log.self_ns(layer) * static_cast<double>(log.count(layer)) /
                 round_trips;
    coverage = path_ns / (rtt_p50_us * 1e3);
  }

  void from_streams(const StreamTotals& plain, const StreamTotals& traced);

  void emit(Report& r) const {
    r.metric("xmit.fetch_ms", fetch_ms, "ms");
    r.metric("xmit.parse_ms", parse_ms, "ms");
    r.metric("xmit.translate_ms", translate_ms, "ms");
    r.metric("xmit.register_ms", register_ms, "ms");
    r.metric("xmit.bind_us", bind_us, "us");
    r.metric("pbio.encoder_make_us", encoder_make_us, "us");
    r.metric("session.open_us", open_us, "us");
    r.metric("session.announce_us", announce_us, "us");
    r.metric("pbio.first_decode_us", first_decode_us, "us");
    r.metric("session.metadata_bytes", metadata_bytes, "count");
    r.metric("pbio.encode_ns", encode_ns, "ns");
    r.metric("session.send_ns", send_ns, "ns");
    r.metric("session.recv_ns", recv_ns, "ns");
    r.metric("pbio.by_id_ns", by_id_ns, "ns");
    r.metric("pbio.decode_ns", decode_ns, "ns");
    const double lookups = plan_hits + plan_misses;
    r.metric("pbio.plan_cache_hit_ratio",
             lookups > 0 ? plan_hits / lookups : 0, "fraction");
    r.metric("pbio.plan_cache_hits", plan_hits, "count");
    r.metric("pbio.plan_cache_misses", plan_misses, "count");
    r.metric("pbio.decode_MBps", decode_mbps, "MB/s");
    r.metric("net.sends_per_rec", sends_per_rec, "count");
    r.metric("net.wire_bytes_per_rec", wire_bytes_per_rec, "bytes");
    r.metric("session.credit_grants_per_krec", grants_per_krec, "count");
    r.metric("session.send_block_ms", send_block_ms, "ms");
    r.metric("session.send_queue_peak", send_queue_peak, "count");
    r.metric("storage.wal_bytes_per_rec", wal_bytes_per_rec, "bytes");
    r.metric("storage.open_ms", storage_open_ms, "ms");
    r.metric("storage.scan_ns_per_rec", scan_ns_per_rec, "ns");
    r.metric("session.replay_first_ms", replay_first_ms, "ms");
    r.metric("session.batch_records_per_call", batch_records_per_call,
             "count");
    r.metric("session.batch_ns_per_rec", batch_ns_per_rec, "ns");
    r.metric("session.replay_records_per_s", replay_records_per_s,
             "records/s");
    r.metric("process.allocs_per_rec", allocs_per_rec, "count");
    r.metric("session.send_allocs_per_call", send_allocs, "count");
    r.metric("session.recv_allocs_per_call", recv_allocs, "count");
    r.metric("pbio.decode_allocs_per_call", decode_allocs, "count");
    r.metric("pbio.encode_allocs_per_call", encode_allocs, "count");
    r.metric("trace.coverage", coverage, "fraction");
    r.metric("trace.overhead", overhead, "fraction");
  }
};

// Per-slice quantiles of the latency phase. Only these are kept, so the
// process's memory does not grow with the number of round trips (which
// would make peak_rss_MB follow the machine's speed).
struct LatencySlices {
  Samples p50_us, p99_us;
  void add(const Samples& rtt_us) {
    if (rtt_us.empty()) return;
    const Summary s = rtt_us.summary();
    p50_us.add(s.median);
    p99_us.add(s.p99);
  }
};

// Stream slices summed: window rates pooled, counters added.
struct StreamTotals {
  explicit StreamTotals(std::size_t keep_spans = 0)
      : tx_spans(keep_spans), rx_spans(keep_spans) {}
  Samples records_per_s, mb_per_s, cpu_us_per_rec;
  double records = 0, allocs = 0, net_sends = 0, net_bytes = 0;
  double credit_grants = 0, send_block_ms = 0, send_queue_peak = 0;
  double decode_bytes = 0, decode_ns = 0;
  SpanLog tx_spans, rx_spans;

  void add(const StreamStats& s) {
    records_per_s.append(s.windows.records_per_s);
    mb_per_s.append(s.windows.mb_per_s);
    cpu_us_per_rec.append(s.windows.cpu_us_per_record);
    records += static_cast<double>(s.delivered);
    allocs += s.allocs;
    net_sends += s.net_sends;
    net_bytes += s.net_bytes;
    credit_grants += s.credit_grants;
    send_block_ms += s.send_block_ms;
    send_queue_peak =
        std::max(send_queue_peak, static_cast<double>(s.send_queue_peak));
    decode_bytes += s.decode_bytes;
    decode_ns += s.decode_ns;
    tx_spans.add(s.tx_spans, s.spans_full);
    rx_spans.add(s.rx_spans, s.spans_full);
  }
  double per_record(double total) const {
    return total / std::max(records, 1.0);
  }
};

void Layers::from_streams(const StreamTotals& plain,
                          const StreamTotals& traced) {
  sends_per_rec = plain.per_record(plain.net_sends);
  wire_bytes_per_rec = plain.per_record(plain.net_bytes);
  grants_per_krec = plain.per_record(plain.credit_grants) * 1000.0;
  send_block_ms = plain.send_block_ms;
  send_queue_peak = plain.send_queue_peak;
  allocs_per_rec = plain.per_record(plain.allocs);
  if (traced.decode_ns > 0)
    decode_mbps = traced.decode_bytes / traced.decode_ns * 1e3;
  const double base = plain.records_per_s.trimmed_mean();
  if (base > 0) overhead = 1.0 - traced.records_per_s.trimmed_mean() / base;
}

// Every end-to-end figure is a trimmed mean (see Samples::trimmed_mean):
// rates and CPU over the run's stream windows, the round trip over its
// latency slices' medians, and set-up time over its set-ups. The
// distributions, with their medians and best and worst values, are
// printed and recorded next to them. The round-trip p99 is recorded as a
// distribution only: on a shared host it follows the neighbours more than
// the program.
void report_e2e(RunContext& ctx, const Samples& records_per_s,
                const Samples& mb_per_s, const Samples& cpu_us_per_rec,
                const LatencySlices& rtt, const Samples& setup_s) {
  Report& r = ctx.report;
  r.metric("records_per_s", records_per_s.trimmed_mean(), "records/s");
  r.metric("goodput_MBps", mb_per_s.trimmed_mean(), "MB/s");
  r.metric("cpu_us_per_rec", cpu_us_per_rec.trimmed_mean(), "us");
  r.metric("rtt_p50_us", rtt.p50_us.trimmed_mean(), "us");
  r.metric("setup_s", setup_s.trimmed_mean(), "s");
  r.metric("peak_rss_MB", peak_rss_mb(), "MB");
  r.dist("slice_rtt_p50_us", rtt.p50_us, "us");
  r.dist("slice_rtt_p99_us", rtt.p99_us, "us");
  r.dist("setup_s", setup_s, "s");
  r.dist("window_records_per_s", records_per_s, "records/s");
  r.dist("window_goodput_MBps", mb_per_s, "MB/s");
  r.dist("window_cpu_us_per_rec", cpu_us_per_rec, "us");
}

// A traced slice whose buffer filled traced only part of its records.
void note_filled(RunContext& ctx, const char* phase, const SpanLog& log) {
  if (log.filled_slices() > 0)
    ctx.report.note(std::string(phase) + ": span buffer filled in " +
                    std::to_string(log.filled_slices()) + " slices");
}

void write_trace(RunContext& ctx, const char* phase,
                 const std::vector<Span>& spans) {
  if (ctx.options.spans_dir.empty() || spans.empty()) return;
  const std::string path = ctx.options.spans_dir + "/" + ctx.options.workload +
                           "-seed" + std::to_string(ctx.options.seed) + "-" +
                           phase + ".tsv";
  const std::string label = ctx.options.workload + " " + phase;
  if (!write_spans(path, spans, label.c_str()))
    ctx.report.note("could not write spans to " + path);
}

void shuffle(std::vector<std::uint32_t>& items, xmit::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i)
    std::swap(items[i - 1], items[rng.below(i)]);
}

using ConfigFor = std::function<RigConfig(int setup)>;
using Discard = std::function<void(int setup)>;

// Writes out everything dirty on the file system of `dir`.
void sync_disk(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

// Set-up number `k`: a full connect, timed phase by phase.
std::unique_ptr<Rig> set_up(RunContext& ctx, Pool& pool,
                            const ConfigFor& config_for, int k,
                            SetupSeries& series, Tracer& tracer) {
  ctx.ledger.attempt();
  const RigConfig config = config_for(k);
  // A durable sender's set-up fsyncs its catalog and identity. On ext4 an
  // fsync commits the journal, which first writes out the data the stream
  // phase left dirty (megabytes of log), so the set-up would time the
  // disk's write-back of the previous phase. That is written out here,
  // before the clock starts.
  if (!config.tx_options.durable_dir.empty()) sync_disk(ctx.options.workdir);
  auto opened = Rig::open(ctx.schema_url, config, ctx.host, pool, tracer);
  if (!opened.is_ok()) {
    ctx.ledger.fail("set-up: " + opened.status().to_string());
    return nullptr;
  }
  series.add(opened.value()->times);
  return std::move(opened).value();
}

void tear_down(std::unique_ptr<Rig> rig, const Discard& discard, int k) {
  if (rig) rig->close();
  rig.reset();
  discard(k);
}

// The Fig. 7 invariant for every native kind the rig discovered.
void check_discovery(RunContext& ctx, Rig& rig, const RigConfig& config) {
  for (Kind kind : config.kinds) {
    ctx.ledger.attempt();
    for (std::uint64_t i = 0;; ++i) {
      const Entry& entry = rig.pool.at(i);
      if (entry.kind != kind) continue;
      AnyRecord sample = entry.record;
      stamp(kind, sample, i);
      Status st = check_fig7(kind, rig.formats[index_of(kind)], ctx.host,
                             sample);
      if (!st.is_ok()) ctx.ledger.fail(st.to_string());
      break;
    }
  }
}

void add_plan_stats(Layers& layers, const Rig& rig) {
  for (const auto* decoder : {rig.rx_decoder.get(), rig.tx_decoder.get()}) {
    const xmit::CacheStats stats = decoder->plan_cache_stats();
    layers.plan_hits += static_cast<double>(stats.hits);
    layers.plan_misses += static_cast<double>(stats.misses);
  }
}

struct StreamingRun {
  std::unique_ptr<Rig> rig;
  Layers layers;
};

// Initial set-ups, then cycles of [latency slice, stream slice, one more
// set-up] on the last rig until --seconds have passed. Untraced runs
// report the end-to-end metrics; traced runs split every slice into an
// untraced and a traced half and fill the per-layer metrics.
StreamingRun run_streaming(RunContext& ctx, Pool& pool,
                           const ConfigFor& config_for, const Discard& discard,
                           double latency_share) {
  StreamingRun run;
  const RunOptions& o = ctx.options;
  Tracer setup_tracer(o.trace ? 4096 : 0);
  SetupSeries series;
  CpuRotation cpus;
  for (int k = 0; k < kInitialSetups; ++k) {
    cpus.pin(static_cast<std::size_t>(k));
    if (run.rig) tear_down(std::move(run.rig), discard, k - 1);
    run.rig = set_up(ctx, pool, config_for, k, series, setup_tracer);
    if (!run.rig) return run;
  }
  Rig& rig = *run.rig;
  check_discovery(ctx, rig, config_for(kInitialSetups - 1));

  const int cycles = std::max(1, static_cast<int>(o.seconds / kCycleSeconds));
  const double cycle_s = o.seconds / cycles;
  const double latency_s = cycle_s * latency_share;
  const double stream_s = cycle_s - latency_s;
  const double split = o.trace ? 0.5 : 1.0;
  const std::size_t keep = kSpanCapacity / static_cast<std::size_t>(cycles);
  Tracer off;
  SpanLog latency_spans(keep);
  LatencySlices latency_plain;
  StreamTotals stream_plain, stream_traced(keep);
  for (int c = 0; c < cycles && ctx.ledger.failed() == 0; ++c) {
    cpus.pin(static_cast<std::size_t>(kInitialSetups + c));
    const std::uint64_t seed = o.seed * 7919 + static_cast<std::uint64_t>(c);
    const Samples rtt_us =
        run_latency(rig, latency_s * split, ctx.ledger, off, seed);
    latency_plain.add(rtt_us);
    if (o.trace) {
      Tracer tracer(slice_capacity(rtt_us.size(), kSpansPerRoundTrip));
      run_latency(rig, latency_s * split, ctx.ledger, tracer, seed + 1);
      latency_spans.add(tracer.spans(), tracer.full());
    }
    StreamStats plain = run_stream(rig, stream_s * split, ctx.ledger, 0);
    const std::uint64_t delivered = plain.delivered;
    stream_plain.add(plain);
    if (o.trace)
      stream_traced.add(
          run_stream(rig, stream_s * split, ctx.ledger,
                     slice_capacity(delivered, kSpansPerStreamRecord)));
    const int k = kInitialSetups + c;
    tear_down(set_up(ctx, pool, config_for, k, series, setup_tracer), discard,
              k);
  }
  cpus.release();

  if (!o.trace) {
    report_e2e(ctx, stream_plain.records_per_s, stream_plain.mb_per_s,
               stream_plain.cpu_us_per_rec, latency_plain, series.total_s);
    ctx.report.note("process.allocs_per_rec (stream) = " +
                    std::to_string(stream_plain.per_record(stream_plain.allocs)));
  } else {
    run.layers.from_setups(series);
    run.layers.from_round_trips(latency_spans,
                                latency_plain.p50_us.trimmed_mean());
    run.layers.from_streams(stream_plain, stream_traced);
    note_filled(ctx, "latency", latency_spans);
    note_filled(ctx, "stream", stream_traced.tx_spans);
    write_trace(ctx, "setup", setup_tracer.spans());
    write_trace(ctx, "latency", latency_spans.kept());
    write_trace(ctx, "stream-tx", stream_traced.tx_spans.kept());
    write_trace(ctx, "stream-rx", stream_traced.rx_spans.kept());
  }
  add_plan_stats(run.layers, rig);
  return run;
}

// --- small_mixed ----------------------------------------------------------

void small_mixed(RunContext& ctx) {
  Pool pool(ctx.options.seed);
  // An even mix of the five small formats (Fig. 6's 12, 20, 44 and 152 B
  // rows and the string-bearing JoinRequest), in seeded order and contents.
  RigConfig config;
  config.kinds = {Kind::kControl, Kind::kGrid, Kind::kStat, Kind::kVis,
                  Kind::kJoin};
  for (Kind kind : config.kinds)
    for (int i = 0; i < 32; ++i)
      pool.schedule.push_back(static_cast<std::uint32_t>(pool.add_small(kind)));
  shuffle(pool.schedule, pool.rng());
  StreamingRun run = run_streaming(
      ctx, pool, [&](int) { return config; }, [](int) {}, 0.3);
  if (run.rig && ctx.options.trace) run.layers.emit(ctx.report);
}

// --- durable_fc -----------------------------------------------------------

struct ReplayStats {
  std::uint64_t records = 0;
  double elapsed_s = 0;
  double first_ms = 0;
  std::uint64_t calls = 0;
  double batch_ns = 0;
};

// The sender restarts from its directory; a cold subscriber with a fresh
// registry asks for the whole history and drains it with receive_batch
// on two decode workers, checking every record.
ReplayStats replay(RunContext& ctx, Pool& pool, const RigConfig& config,
                   std::uint64_t expected) {
  ReplayStats stats;
  pbio::FormatRegistry reborn_registry, cold_registry;
  auto pipe = xmit::net::Channel::pipe();
  ctx.ledger.attempt();
  if (!pipe.is_ok()) {
    ctx.ledger.fail("replay pipe: " + pipe.status().to_string());
    return stats;
  }
  session::MessageSession reborn(std::move(pipe.value().first),
                                 reborn_registry, config.tx_options);
  if (!reborn.durable_status().is_ok() ||
      reborn.durable_last_seq() != expected) {
    ctx.ledger.fail("restarted sender recovered " +
                    std::to_string(reborn.durable_last_seq()) + " of " +
                    std::to_string(expected) + " records");
    return stats;
  }
  session::SessionOptions cold_options = config.rx_options;
  cold_options.batch_decode_workers = 2;
  session::MessageSession cold(std::move(pipe.value().second), cold_registry,
                               cold_options);

  std::atomic<bool> stop{false};
  std::thread pump([&] {
    while (!stop.load()) {
      auto got = reborn.receive_view(20);
      if (got.is_ok()) ctx.ledger.fail("restarted sender received a record");
    }
  });

  constexpr std::size_t kBatch = 256;
  std::vector<DurableView> out(kBatch);
  const pbio::Format& view_format = *ctx.host.durable_view();
  const std::int64_t t0 = now_ns();
  Status requested = cold.request_replay(1);
  if (!requested.is_ok()) ctx.ledger.fail("request_replay: " + requested.to_string());
  while (requested.is_ok() && stats.records < expected) {
    const std::int64_t b0 = now_ns();
    auto n = cold.receive_batch(view_format, out.data(), sizeof(DurableView),
                                kBatch, 5000);
    const std::int64_t b1 = now_ns();
    if (!n.is_ok()) {
      ctx.ledger.fail("receive_batch: " + n.status().to_string());
      break;
    }
    if (stats.calls++ == 0) stats.first_ms = static_cast<double>(b1 - t0) / 1e6;
    stats.batch_ns += static_cast<double>(b1 - b0);
    for (std::size_t k = 0; k < n.value(); ++k) {
      const std::uint64_t index = stats.records + k;
      ctx.ledger.attempt();
      const Entry& entry = pool.at(index);
      AnyRecord want = entry.record;
      stamp(entry.kind, want, index);
      if (!same_view(out[k], durable_view_of(entry.kind, want)))
        ctx.ledger.fail("replayed record " + std::to_string(index) +
                        " does not match");
    }
    stats.records += n.value();
  }
  stats.elapsed_s = static_cast<double>(now_ns() - t0) * 1e-9;
  stop.store(true);
  pump.join();
  reborn.close();
  cold.close();
  if (stats.records != expected)
    ctx.ledger.fail("replay delivered " + std::to_string(stats.records) +
                    " of " + std::to_string(expected) + " records");
  return stats;
}

std::uint64_t wal_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& item : fs::directory_iterator(dir, ec)) {
    const std::string name = item.path().filename().string();
    if (name.rfind("seg-", 0) == 0 && item.path().extension() == ".log")
      total += item.file_size(ec);
  }
  return total;
}

// RecordLog::open on the directory plus one Cursor pass over it.
void measure_log(RunContext& ctx, const std::string& dir,
                 std::uint64_t expected, Layers& layers) {
  ctx.ledger.attempt();
  const std::int64_t t0 = now_ns();
  auto log = xmit::storage::RecordLog::open(dir, xmit::storage::LogOptions{},
                                            xmit::DecodeLimits::defaults());
  const std::int64_t t1 = now_ns();
  if (!log.is_ok()) {
    ctx.ledger.fail("RecordLog::open: " + log.status().to_string());
    return;
  }
  auto cursor = log.value().read_from(1);
  xmit::storage::RecordLog::Item item;
  std::uint64_t scanned = 0;
  for (;;) {
    auto more = cursor.next(&item);
    if (!more.is_ok()) {
      ctx.ledger.fail("cursor: " + more.status().to_string());
      return;
    }
    if (!more.value()) break;
    ++scanned;
  }
  const std::int64_t t2 = now_ns();
  if (scanned != expected)
    ctx.ledger.fail("log scan found " + std::to_string(scanned) + " of " +
                    std::to_string(expected) + " records");
  layers.storage_open_ms = static_cast<double>(t1 - t0) / 1e6;
  layers.scan_ns_per_rec =
      static_cast<double>(t2 - t1) / static_cast<double>(std::max<std::uint64_t>(scanned, 1));
}

void durable_fc(RunContext& ctx) {
  Pool pool(ctx.options.seed);
  for (Kind kind : {Kind::kStat, Kind::kVis})
    for (int i = 0; i < 64; ++i)
      pool.schedule.push_back(static_cast<std::uint32_t>(pool.add_small(kind)));
  shuffle(pool.schedule, pool.rng());

  auto dir_of = [&](int setup) {
    return ctx.options.workdir + "/durable-" + std::to_string(setup);
  };
  auto config_for = [&](int setup) {
    RigConfig config;
    config.kinds = {Kind::kStat, Kind::kVis};
    config.tx_options.durable_dir = dir_of(setup);
    // No fsync on the data path: this workload prices the WAL-append and
    // credit path. Interval fsyncs of a 20 s closed loop write hundreds of
    // MB per run, and on a shared virtual disk (4-vCPU VM) their latency
    // drifted run after run as the disk's allowance drained
    // (records_per_s fell 4x over ten consecutive runs). Set-up still
    // fsyncs the catalog and the session identity.
    config.tx_options.durable_fsync = xmit::storage::FsyncPolicy::kNone;
    config.tx_options.flow_control = true;
    config.tx_options.slow_consumer =
        session::SlowConsumerPolicy::kBlockWithDeadline;
    config.rx_options.flow_control = true;
    return config;
  };
  auto discard = [&](int setup) {
    std::error_code ec;
    fs::remove_all(dir_of(setup), ec);
  };
  StreamingRun run = run_streaming(ctx, pool, config_for, discard, 0.25);
  if (!run.rig) {
    discard(kInitialSetups - 1);
    return;
  }
  const std::string dir = dir_of(kInitialSetups - 1);
  const std::uint64_t records = run.rig->next_index;
  if (run.rig->tx->durable_last_seq() != records)
    ctx.ledger.fail("log holds " +
                    std::to_string(run.rig->tx->durable_last_seq()) + " of " +
                    std::to_string(records) + " sent records");
  run.layers.wal_bytes_per_rec = static_cast<double>(wal_bytes(dir)) /
                                 static_cast<double>(std::max<std::uint64_t>(records, 1));
  run.rig->close();
  run.rig.reset();

  if (ctx.options.trace) measure_log(ctx, dir, records, run.layers);
  const ReplayStats replayed = replay(ctx, pool, config_for(kInitialSetups - 1), records);
  if (replayed.records > 0 && replayed.elapsed_s > 0) {
    run.layers.replay_records_per_s =
        static_cast<double>(replayed.records) / replayed.elapsed_s;
    run.layers.replay_first_ms = replayed.first_ms;
    run.layers.batch_records_per_call =
        static_cast<double>(replayed.records) /
        static_cast<double>(std::max<std::uint64_t>(replayed.calls, 1));
    run.layers.batch_ns_per_rec =
        replayed.batch_ns / static_cast<double>(replayed.records);
  }
  ctx.report.note("replay: " + std::to_string(replayed.records) +
                  " records in " + std::to_string(replayed.elapsed_s) +
                  " s (" + std::to_string(run.layers.replay_records_per_s) +
                  " records/s)");
  if (ctx.options.trace) run.layers.emit(ctx.report);
  discard(kInitialSetups - 1);
}

struct Workload {
  const char* name;
  void (*run)(RunContext&);
};

constexpr Workload kWorkloads[] = {
    {"small_mixed", small_mixed},
    {"durable_fc", durable_fc},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

}  // namespace

bool known_workload(const std::string& name) {
  return find_workload(name) != nullptr;
}

void run_workload(RunContext& context) {
  find_workload(context.options.workload)->run(context);
}

}  // namespace perfbench
