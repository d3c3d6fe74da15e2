// xmit_inspect: dump a self-describing PBIO data file.
//
// Because PBIO files embed their format metadata, no schema or source
// code is needed — exactly the openness argument of the paper applied to
// data at rest. Each record is printed field-by-field via the dynamic
// RecordReader; --xml re-encodes records as XML documents instead.
//
// Usage (one command line each; continuation lines are indented):
//   xmit_inspect [--xml] [--formats-only] [--plan] [--retries N]
//       [--timeout-ms N] [--max-depth N] [--max-bytes N] [--max-alloc N]
//       <file.pbio | http://...>
//
// --plan prints, for every format in the file, the compiled decode plan
// to the equivalent host-layout struct — one line per op, including the
// vector "fuse" ops — plus the op mix (copy/swap/convert/fused counts)
// and which kernel backend (sse2/neon/scalar) would execute it.
//   xmit_inspect --connect HOST:PORT [--resume] [--flow-control] [--count N]
//       [--timeout-ms N] [--max-depth N] [--max-bytes N] [--max-alloc N]
// http:// sources are fetched (with retry/backoff per the flags) into a
// private temporary file first, so a flaky archive server doesn't fail
// the dump; the file is removed however the dump ends.
// --max-depth/--max-bytes/--max-alloc bound what decoding the (untrusted)
// file contents may consume; defaults are DecodeLimits::defaults().
//
// --connect dials a live PBIO session and dumps records as they arrive,
// finishing with a session-stats line (records, announcements,
// reconnects, replayed, duplicate and evicted counts). With --resume the
// session is resumable: transport deaths redial transparently and only a
// peer silent past the liveness deadline (--timeout-ms) ends the dump.
// With --flow-control the session grants the peer credit (tag 0x08) and
// a second stats line reports the flow-control picture: grants exchanged,
// credit still outstanding, send-queue high-water marks, records spilled
// to the log or shed (and the peer's shed count), and time spent blocked.
//
// --registry URL fetches the JSON document served by a live process's
// RegistryStatsService endpoint (src/xmit/registry_stats.hpp) and prints
// the registry picture an operator wants at 10k formats: per-shard
// occupancy, and for every bounded cache its residency, pinned set,
// hit/miss/eviction/uncacheable counters and budget. --format=json dumps
// the raw document instead.
//
// --log DIR verifies a durable record-log directory offline and without
// mutating it (unlike opening it, which heals torn tails): per segment it
// reports the frame count, sequence range, how the scan stopped (clean
// end, torn tail, corruption, over-limit frame) and how much of the
// sidecar index survives verification; the format catalog is summarized
// the same way, and any shed.log sidecar (sequence ranges dropped under
// the kShedOldest overload policy) is listed so an operator sees exactly
// which records the durable history is honestly missing. Exit 1 on
// corruption; a torn tail alone is the expected crash artifact and
// exits 0.
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_set>

#include "analysis/lint.hpp"
#include "analysis/plan_verify.hpp"
#include "baseline/xmlwire.hpp"
#include "net/fetch.hpp"
#include "pbio/decode.hpp"
#include "pbio/dynrecord.hpp"
#include "pbio/format_wire.hpp"
#include "pbio/simd.hpp"
#include "session/session.hpp"
#include "storage/data_file.hpp"
#include "storage/framing.hpp"
#include "storage/io.hpp"

namespace {

using namespace xmit;

void print_format(const pbio::Format& format) {
  std::printf("format \"%s\"  id=%016llx  %u bytes  arch=%s\n",
              format.name().c_str(),
              static_cast<unsigned long long>(format.id()),
              format.struct_size(), format.arch().to_string().c_str());
  for (const auto& field : format.fields())
    std::printf("  %-16s %-24s size=%-3u offset=%u\n", field.name.c_str(),
                field.type_name.c_str(), field.size, field.offset);
}

// --plan: the compiled decode plan from `format` (as found in the file,
// possibly foreign-endian) to the same field list laid out for the host,
// plus the op mix and the kernel backend that would run it.
void print_plan(const pbio::Decoder& decoder, const pbio::FormatPtr& format) {
  std::vector<pbio::IOField> rows;
  for (const auto& field : format->fields())
    rows.push_back({field.name, field.type_name, field.size, field.offset});
  auto receiver = pbio::Format::make(format->name(), rows,
                                     format->struct_size(),
                                     pbio::ArchInfo::host());
  if (!receiver.is_ok()) {
    std::printf("  decode plan: not derivable for this arch (%s)\n",
                receiver.status().to_string().c_str());
    return;
  }
  auto stats = decoder.plan_stats(format, *receiver.value());
  auto listing = decoder.plan_disassembly(format, *receiver.value());
  if (!stats.is_ok() || !listing.is_ok()) {
    std::printf("  decode plan: %s\n",
                (stats.is_ok() ? listing.status() : stats.status())
                    .to_string()
                    .c_str());
    return;
  }
  std::printf("  decode plan -> host (%s kernels%s):\n",
              pbio::simd::backend(),
              pbio::simd::enabled() ? "" : ", runtime-disabled");
  std::string line;
  for (char c : listing.value()) {
    if (c == '\n') {
      std::printf("    %s\n", line.c_str());
      line.clear();
    } else {
      line += c;
    }
  }
  if (!line.empty()) std::printf("    %s\n", line.c_str());
  const auto& s = stats.value();
  std::printf("  op mix: %s%zu copy, %zu swap, %zu convert, %zu fused, "
              "%zu string, %zu dynamic\n",
              s.identity ? "identity, " : "", s.copy_ops, s.swap_ops,
              s.convert_ops, s.fused_ops, s.string_ops, s.dynamic_ops);
}

int print_record_fields(const pbio::RecordReader& reader) {
  const pbio::Format& format = reader.format();
  for (const auto& flat : format.flat_fields()) {
    std::printf("  %-20s = ", flat.path.c_str());
    if (flat.kind == pbio::FieldKind::kString) {
      auto value = reader.get_string(flat.path);
      std::printf("\"%s\"\n", value.is_ok() ? value.value().c_str() : "<error>");
      continue;
    }
    if (flat.array_mode != pbio::ArrayMode::kNone) {
      auto length = reader.array_length(flat.path);
      if (!length.is_ok()) {
        std::printf("<error: %s>\n", length.status().to_string().c_str());
        continue;
      }
      std::uint64_t n = length.value();
      std::printf("[%llu]{", static_cast<unsigned long long>(n));
      if (flat.kind == pbio::FieldKind::kFloat) {
        auto values = reader.get_float_array(flat.path);
        if (values.is_ok())
          for (std::size_t i = 0; i < values.value().size() && i < 8; ++i)
            std::printf("%s%g", i ? ", " : "", values.value()[i]);
      } else {
        auto values = reader.get_int_array(flat.path);
        if (values.is_ok())
          for (std::size_t i = 0; i < values.value().size() && i < 8; ++i)
            std::printf("%s%lld", i ? ", " : "",
                        static_cast<long long>(values.value()[i]));
      }
      std::printf("%s}\n", n > 8 ? ", ..." : "");
      continue;
    }
    switch (flat.kind) {
      case pbio::FieldKind::kFloat: {
        auto value = reader.get_float(flat.path);
        std::printf("%g\n", value.is_ok() ? value.value() : 0.0);
        break;
      }
      case pbio::FieldKind::kUnsigned: {
        auto value = reader.get_uint(flat.path);
        std::printf("%llu\n", value.is_ok()
                                  ? static_cast<unsigned long long>(value.value())
                                  : 0ull);
        break;
      }
      default: {
        auto value = reader.get_int(flat.path);
        std::printf("%lld\n",
                    value.is_ok() ? static_cast<long long>(value.value()) : 0ll);
        break;
      }
    }
  }
  return 0;
}

// Dial HOST:PORT and dump records until the peer closes (or, with
// --resume, until it stays silent past the liveness deadline).
int run_connect(const std::string& spec, bool resume, bool flow_control,
                int timeout_ms, const DecodeLimits& limits,
                long long max_records) {
  const std::size_t colon = spec.rfind(':');
  if (colon == 0 || colon == std::string::npos || colon + 1 == spec.size()) {
    std::fprintf(stderr, "--connect wants HOST:PORT, got '%s'\n",
                 spec.c_str());
    return 2;
  }
  const std::string host = spec.substr(0, colon);
  const long port = std::strtol(spec.c_str() + colon + 1, nullptr, 10);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "--connect wants a port in 1..65535, got '%s'\n",
                 spec.c_str() + colon + 1);
    return 2;
  }

  pbio::FormatRegistry registry;
  session::SessionOptions options;
  options.resumable = resume;
  options.flow_control = flow_control;
  options.liveness_deadline_ms = timeout_ms;
  session::MessageSession session(
      net::Endpoint::tcp(host, static_cast<std::uint16_t>(port), timeout_ms),
      registry, options);
  session.set_limits(limits);
  auto connected = session.connect_now();
  if (!connected.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", spec.c_str(),
                 connected.to_string().c_str());
    return 1;
  }

  std::unordered_set<pbio::FormatId> printed;
  int index = 0;
  int exit_code = 0;
  while (max_records == 0 || index < max_records) {
    auto incoming = session.receive(timeout_ms);
    if (!incoming.is_ok()) {
      const ErrorCode code = incoming.code();
      if (code == ErrorCode::kNotFound || code == ErrorCode::kTimeout) break;
      std::fprintf(stderr, "record %d: %s\n", index,
                   incoming.status().to_string().c_str());
      if (session.poisoned()) {
        exit_code = 1;
        break;
      }
      continue;  // malformed frame; the session stays usable
    }
    for (const auto& format : registry.all())
      if (printed.insert(format->id()).second) print_format(*format);
    std::printf("record %d: %s (%zu bytes)\n", index,
                incoming.value().sender_format->name().c_str(),
                incoming.value().bytes.size());
    auto reader = pbio::RecordReader::make(incoming.value().bytes,
                                           incoming.value().sender_format);
    if (reader.is_ok()) print_record_fields(reader.value());
    ++index;
  }
  std::printf(
      "session: %zu record(s) received, %zu announcement(s), "
      "%zu reconnect(s), %zu replayed, %zu duplicate(s) discarded, "
      "%zu malformed, %zu evicted\n",
      session.records_received(), session.announcements_received(),
      session.reconnects(), session.replayed_records(),
      session.duplicates_discarded(), session.malformed_frames(),
      session.evicted_records());
  if (session.flow_controlled()) {
    std::printf(
        "flow control: %zu grant(s) sent, %zu received, "
        "%llu record(s) of credit outstanding, queue high-water "
        "%zu record(s) / %zu byte(s), %zu spilled, %zu shed, "
        "%llu peer-shed, %.1f ms blocked\n",
        session.credit_grants_sent(), session.credit_grants_received(),
        static_cast<unsigned long long>(session.credit_records_available()),
        session.send_queue_depth_peak(), session.send_queue_bytes_peak(),
        session.records_spilled(), session.records_shed(),
        static_cast<unsigned long long>(session.peer_shed_records()),
        session.send_block_ms());
  }
  session.close();
  return exit_code;
}

// Offline, read-only verification of a durable log directory: every
// segment and its sidecar index, plus the format catalog, scanned with
// the same framing code the log itself recovers with — but without the
// healing truncation, so the tool can be pointed at a directory that is
// still owned by a live writer or preserved for forensics.
int run_log_dump(const std::string& dir, const DecodeLimits& limits) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    std::fprintf(stderr, "%s: cannot open directory\n", dir.c_str());
    return 1;
  }
  std::vector<std::string> segments;
  bool has_catalog = false;
  bool has_shed_log = false;
  while (dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name.size() == 24 && name.rfind("seg-", 0) == 0 &&
        name.substr(20) == ".log")
      segments.push_back(name);
    else if (name == "catalog.cat")
      has_catalog = true;
    else if (name == "shed.log")
      has_shed_log = true;
  }
  ::closedir(handle);
  std::sort(segments.begin(), segments.end());

  constexpr std::size_t kReadBudget = std::size_t(1) << 30;
  int exit_code = 0;
  std::size_t total_frames = 0;
  std::uint64_t first_seq = 0, last_seq = 0;
  for (const std::string& name : segments) {
    auto bytes = storage::read_file_bytes(dir + "/" + name, kReadBudget);
    if (!bytes.is_ok()) {
      std::printf("segment %s: unreadable: %s\n", name.c_str(),
                  bytes.status().to_string().c_str());
      exit_code = 1;
      continue;
    }
    auto scan = storage::scan_segment(bytes.value(), limits, nullptr);
    std::printf("segment %s: %zu frame(s), seq [%llu, %llu], "
                "%zu/%zu byte(s) valid, stop=%s\n",
                name.c_str(), scan.frames,
                static_cast<unsigned long long>(scan.first_seq),
                static_cast<unsigned long long>(scan.last_seq),
                scan.valid_bytes, bytes.value().size(),
                storage::scan_stop_name(scan.stop));
    if (scan.stop == storage::ScanStop::kTornTail) {
      std::printf("  torn tail: %zu byte(s) past the last whole frame "
                  "(crash artifact; the next open truncates them)\n",
                  bytes.value().size() - scan.valid_bytes);
    } else if (!scan.error.is_ok()) {
      std::printf("  %s\n", scan.error.to_string().c_str());
      exit_code = 1;
    }
    if (scan.frames != 0) {
      if (total_frames == 0) first_seq = scan.first_seq;
      last_seq = scan.last_seq;
      total_frames += scan.frames;
    }
    const std::string index_path =
        dir + "/" + name.substr(0, 20) + ".idx";
    auto index_bytes = storage::read_file_bytes(index_path, kReadBudget);
    if (index_bytes.is_ok()) {
      const std::size_t declared =
          index_bytes.value().size() > storage::kSegmentHeaderBytes
              ? (index_bytes.value().size() - storage::kSegmentHeaderBytes) /
                    storage::kIndexEntryBytes
              : 0;
      auto entries = storage::parse_index(
          index_bytes.value(), bytes.value(),
          scan.frames != 0 ? scan.first_seq : 0, limits);
      std::printf("  index: %zu/%zu entr%s verified\n", entries.size(),
                  declared, declared == 1 ? "y" : "ies");
    }
  }
  if (has_catalog) {
    auto bytes = storage::read_file_bytes(dir + "/catalog.cat", kReadBudget);
    if (bytes.is_ok()) {
      std::size_t formats = 0;
      auto scan = storage::scan_segment(
          bytes.value(), limits,
          [&](std::uint64_t, std::uint64_t format_id,
              std::span<const std::uint8_t> payload, std::size_t) {
            auto format = pbio::deserialize_format(payload, limits);
            if (format.is_ok() && format.value()->id() == format_id) {
              ++formats;
              std::printf("  format \"%s\" id=%016llx\n",
                          format.value()->name().c_str(),
                          static_cast<unsigned long long>(format_id));
            } else {
              std::printf("  format id=%016llx: undecodable entry\n",
                          static_cast<unsigned long long>(format_id));
            }
            return true;
          },
          storage::kCatalogMagic);
      std::printf("catalog: %zu format(s), stop=%s\n", formats,
                  storage::scan_stop_name(scan.stop));
      if (!scan.error.is_ok()) {
        std::printf("  %s\n", scan.error.to_string().c_str());
        exit_code = 1;
      }
    } else {
      std::printf("catalog: unreadable: %s\n",
                  bytes.status().to_string().c_str());
      exit_code = 1;
    }
  }
  if (has_shed_log) {
    // shed.log is an append-only text sidecar: one "first last" line per
    // range the overload policy dropped. Gaps it names in the segment
    // history are honest losses, not corruption.
    std::FILE* shed = std::fopen((dir + "/shed.log").c_str(), "re");
    if (shed != nullptr) {
      std::size_t ranges = 0;
      unsigned long long total_dropped = 0;
      unsigned long long first = 0, last = 0;
      while (std::fscanf(shed, "%llu %llu", &first, &last) == 2) {
        if (last < first) continue;
        std::printf("  shed range [%llu, %llu]: %llu record(s) dropped "
                    "under overload\n",
                    first, last, last - first + 1);
        ++ranges;
        total_dropped += last - first + 1;
      }
      std::fclose(shed);
      std::printf("shed log: %zu range(s), %llu record(s) dropped "
                  "(named to the peer in 0x09 notices)\n",
                  ranges, total_dropped);
    }
  }
  std::printf("log: %zu segment(s), %zu frame(s), seq [%llu, %llu]\n",
              segments.size(), total_frames,
              static_cast<unsigned long long>(first_seq),
              static_cast<unsigned long long>(last_seq));
  return exit_code;
}

// --registry: fetch and summarize the stats document a
// RegistryStatsService serves. The document shape is owned by this repo
// (src/xmit/registry_stats.cpp), so a hand-rolled scan is enough — the
// toolchain has no JSON library and does not need one.

// Finds `"key":<digits>` at or after `from`; npos on miss.
std::size_t scan_counter(const std::string& body, const char* key,
                         std::size_t from, unsigned long long* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = body.find(needle, from);
  if (at == std::string::npos) return std::string::npos;
  *out = std::strtoull(body.c_str() + at + needle.size(), nullptr, 10);
  return at + needle.size();
}

void print_budget_part(unsigned long long max_entries,
                       unsigned long long max_bytes) {
  if (max_entries == 0 && max_bytes == 0) {
    std::printf("unbounded");
    return;
  }
  if (max_entries != 0) std::printf("%llu entr%s", max_entries,
                                    max_entries == 1 ? "y" : "ies");
  if (max_entries != 0 && max_bytes != 0) std::printf(" / ");
  if (max_bytes != 0) std::printf("%llu byte(s)", max_bytes);
}

int run_registry(const std::string& url, const net::FetchOptions& options,
                 bool raw_json) {
  auto body = net::fetch(url, options);
  if (!body.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", url.c_str(),
                 body.status().to_string().c_str());
    return 1;
  }
  const std::string& text = body.value();
  if (raw_json) {
    std::printf("%s\n", text.c_str());
    return 0;
  }
  unsigned long long formats = 0;
  if (scan_counter(text, "formats", 0, &formats) == std::string::npos) {
    std::fprintf(stderr, "%s: not a registry stats document\n", url.c_str());
    return 1;
  }
  std::vector<unsigned long long> shards;
  std::size_t at = text.find("\"shards\":[");
  if (at != std::string::npos) {
    at += std::strlen("\"shards\":[");
    while (at < text.size() && text[at] != ']') {
      char* end = nullptr;
      shards.push_back(std::strtoull(text.c_str() + at, &end, 10));
      at = static_cast<std::size_t>(end - text.c_str());
      if (at < text.size() && text[at] == ',') ++at;
    }
  }
  std::printf("registry: %llu format(s) across %zu shard(s)\n", formats,
              shards.size());
  if (!shards.empty()) {
    unsigned long long low = shards[0], high = shards[0];
    std::printf("  shard sizes:");
    for (unsigned long long size : shards) {
      std::printf(" %llu", size);
      low = std::min(low, size);
      high = std::max(high, size);
    }
    std::printf("  (min %llu, max %llu)\n", low, high);
  }

  std::size_t cursor = text.find("\"caches\":{");
  if (cursor == std::string::npos) return 0;
  cursor += std::strlen("\"caches\":{");
  while (cursor < text.size() && text[cursor] == '"') {
    const std::size_t name_end = text.find('"', cursor + 1);
    if (name_end == std::string::npos) break;
    const std::string name = text.substr(cursor + 1, name_end - cursor - 1);
    const std::size_t object_end = text.find('}', name_end);
    if (object_end == std::string::npos) break;
    unsigned long long entries = 0, bytes = 0, pinned_entries = 0,
                       pinned_bytes = 0, hits = 0, misses = 0, evictions = 0,
                       uncacheable = 0, max_entries = 0, max_bytes = 0;
    scan_counter(text, "entries", name_end, &entries);
    scan_counter(text, "bytes", name_end, &bytes);
    scan_counter(text, "pinned_entries", name_end, &pinned_entries);
    scan_counter(text, "pinned_bytes", name_end, &pinned_bytes);
    scan_counter(text, "hits", name_end, &hits);
    scan_counter(text, "misses", name_end, &misses);
    scan_counter(text, "evictions", name_end, &evictions);
    scan_counter(text, "uncacheable", name_end, &uncacheable);
    scan_counter(text, "max_entries", name_end, &max_entries);
    scan_counter(text, "max_bytes", name_end, &max_bytes);
    std::printf("cache \"%s\": %llu entr%s / %llu byte(s) resident "
                "(%llu pinned / %llu byte(s)), budget ",
                name.c_str(), entries, entries == 1 ? "y" : "ies", bytes,
                pinned_entries, pinned_bytes);
    print_budget_part(max_entries, max_bytes);
    std::printf("\n  %llu hit(s), %llu miss(es), %llu eviction(s), "
                "%llu uncacheable\n",
                hits, misses, evictions, uncacheable);
    cursor = object_end + 1;
    if (cursor < text.size() && text[cursor] == ',') ++cursor;
  }
  return 0;
}

bool parse_nonnegative(const char* text, int* out) {
  char* end = nullptr;
  long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < 0 || value > 1000000) return false;
  *out = static_cast<int>(value);
  return true;
}

bool parse_positive(const char* text, long long* out) {
  char* end = nullptr;
  long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || value <= 0) return false;
  *out = value;
  return true;
}

// Removes the named file (if any) when the scope ends.
struct UnlinkOnExit {
  std::string path;
  UnlinkOnExit() = default;
  UnlinkOnExit(const UnlinkOnExit&) = delete;
  UnlinkOnExit& operator=(const UnlinkOnExit&) = delete;
  ~UnlinkOnExit() {
    if (!path.empty()) ::unlink(path.c_str());
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool as_xml = false;
  bool formats_only = false;
  bool lint = false;
  bool lint_json = false;
  bool show_plan = false;
  bool resume = false;
  bool flow_control = false;
  std::string connect_spec;
  std::string log_dir;
  std::string registry_url;
  long long max_records = 0;
  int timeout_ms = 5000;
  net::FetchOptions fetch_options;
  fetch_options.retry = net::RetryPolicy::none();
  DecodeLimits limits = DecodeLimits::defaults();
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--xml") == 0)
      as_xml = true;
    else if (std::strcmp(argv[i], "--formats-only") == 0)
      formats_only = true;
    else if (std::strcmp(argv[i], "--lint") == 0)
      lint = true;
    else if (std::strcmp(argv[i], "--format=json") == 0)
      lint_json = true;
    else if (std::strcmp(argv[i], "--plan") == 0)
      show_plan = true;
    else if (std::strcmp(argv[i], "--resume") == 0)
      resume = true;
    else if (std::strcmp(argv[i], "--flow-control") == 0)
      flow_control = true;
    else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc)
      connect_spec = argv[++i];
    else if (std::strcmp(argv[i], "--log") == 0 && i + 1 < argc)
      log_dir = argv[++i];
    else if (std::strcmp(argv[i], "--registry") == 0 && i + 1 < argc)
      registry_url = argv[++i];
    else if (std::strcmp(argv[i], "--count") == 0 && i + 1 < argc) {
      if (!parse_positive(argv[++i], &max_records)) {
        std::fprintf(stderr, "--count wants a positive count, got '%s'\n",
                     argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--max-depth") == 0 && i + 1 < argc) {
      long long bound = 0;
      if (!parse_positive(argv[++i], &bound) || bound > 1000000) {
        std::fprintf(stderr, "--max-depth wants a positive count, got '%s'\n",
                     argv[i]);
        return 2;
      }
      limits.max_depth = static_cast<int>(bound);
    } else if (std::strcmp(argv[i], "--max-bytes") == 0 && i + 1 < argc) {
      long long bound = 0;
      if (!parse_positive(argv[++i], &bound)) {
        std::fprintf(stderr, "--max-bytes wants a positive byte count, got '%s'\n",
                     argv[i]);
        return 2;
      }
      limits.max_string_bytes = static_cast<std::size_t>(bound);
      limits.max_message_bytes = static_cast<std::size_t>(bound);
    } else if (std::strcmp(argv[i], "--max-alloc") == 0 && i + 1 < argc) {
      long long bound = 0;
      if (!parse_positive(argv[++i], &bound)) {
        std::fprintf(stderr, "--max-alloc wants a positive byte count, got '%s'\n",
                     argv[i]);
        return 2;
      }
      limits.max_total_alloc = static_cast<std::uint64_t>(bound);
    } else if (std::strcmp(argv[i], "--retries") == 0 && i + 1 < argc) {
      int value = 0;
      if (!parse_nonnegative(argv[++i], &value)) {
        std::fprintf(stderr, "--retries wants a non-negative count, got '%s'\n",
                     argv[i]);
        return 2;
      }
      fetch_options.retry.max_attempts = value + 1;
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0 && i + 1 < argc) {
      int value = 0;
      if (!parse_nonnegative(argv[++i], &value)) {
        std::fprintf(stderr,
                     "--timeout-ms wants a non-negative duration, got '%s'\n",
                     argv[i]);
        return 2;
      }
      fetch_options.timeout_ms = value;
      timeout_ms = value;
    } else
      path = argv[i];
  }
  if (!connect_spec.empty())
    return run_connect(connect_spec, resume, flow_control, timeout_ms, limits,
                       max_records);
  if (!log_dir.empty()) return run_log_dump(log_dir, limits);
  if (!registry_url.empty())
    return run_registry(registry_url, fetch_options, lint_json);
  if (path == nullptr) {
    std::fprintf(stderr,
                 "usage: xmit_inspect [--xml] [--formats-only] [--lint] "
                 "[--format=json] "
                 "[--plan] [--retries N] [--timeout-ms N] [--max-depth N] "
                 "[--max-bytes N] [--max-alloc N] <file.pbio | http://...>\n"
                 "       xmit_inspect --connect HOST:PORT [--resume] "
                 "[--flow-control] [--count N] [--timeout-ms N]\n"
                 "       xmit_inspect --log DIR\n"
                 "       xmit_inspect --registry URL [--format=json] "
                 "[--retries N] [--timeout-ms N]\n");
    return 2;
  }

  std::string local_path = path;
  UnlinkOnExit temp_file;
  if (local_path.find("://") != std::string::npos) {
    auto body = net::fetch(local_path, fetch_options);
    if (!body.is_ok()) {
      std::fprintf(stderr, "%s: %s\n", path, body.status().to_string().c_str());
      return 1;
    }
    char temp_path[] = "/tmp/xmit_inspect_XXXXXX";
    storage::UniqueFd fd(::mkstemp(temp_path));
    if (!fd.valid()) {
      std::fprintf(stderr, "cannot create a temporary file: %s\n",
                   std::strerror(errno));
      return 1;
    }
    local_path = temp_path;
    temp_file.path = local_path;
    const std::string& bytes = body.value();
    auto written = storage::write_all(
        fd.get(),
        {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()},
        nullptr);
    if (!written.is_ok()) {
      std::fprintf(stderr, "%s\n", written.to_string().c_str());
      return 1;
    }
  }

  pbio::FormatRegistry registry;
  auto source = storage::FileSource::open(local_path, registry);
  if (!source.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", path, source.status().to_string().c_str());
    return 1;
  }
  source.value().set_limits(limits);

  pbio::Decoder decoder(registry);
  decoder.set_limits(limits);
  if (lint) {
    // Formats embedded in the file are as untrusted as its records: lint
    // each one as it streams in, and statically verify every decode plan
    // before it runs.
    analysis::register_plan_verifier();
    decoder.set_verify_plans(true);
  }
  std::size_t printed_formats = 0;
  std::vector<std::string> lint_findings;  // JSON objects, --format=json
  Arena arena;
  int index = 0;
  for (;;) {
    auto record = source.value().next_record();
    if (!record.is_ok()) {
      std::fprintf(stderr, "read error: %s\n",
                   record.status().to_string().c_str());
      return 1;
    }
    if (!record.value().has_value()) break;

    // Print any formats that streamed in before this record.
    auto all = registry.all();
    if (all.size() > printed_formats) {
      for (const auto& format : all) {
        print_format(*format);
        if (lint) {
          for (const auto& diagnostic : analysis::lint_format(*format)) {
            if (lint_json)
              lint_findings.push_back(
                  analysis::to_json(diagnostic, format->name()));
            else
              std::printf("  %s\n", diagnostic.to_string().c_str());
          }
        }
        if (show_plan) print_plan(decoder, format);
      }
      printed_formats = all.size();
    }
    if (formats_only) continue;

    auto info = decoder.inspect(*record.value());
    if (!info.is_ok()) {
      std::fprintf(stderr, "record %d: %s\n", index,
                   info.status().to_string().c_str());
      return 1;
    }
    std::printf("record %d: %s (%zu bytes)\n", index,
                info.value().sender_format->name().c_str(),
                record.value()->size());
    if (as_xml) {
      // Decode into a scratch struct, then re-encode as XML text.
      auto format = info.value().sender_format;
      std::vector<std::uint8_t> scratch(format->struct_size());
      arena.reset();
      auto status = decoder.decode(*record.value(), *format, scratch.data(),
                                   arena);
      if (!status.is_ok()) {
        std::fprintf(stderr, "record %d: %s\n", index,
                     status.to_string().c_str());
        return 1;
      }
      auto codec = baseline::XmlWireCodec::make(format);
      if (codec.is_ok()) {
        auto text = codec.value().encode(scratch.data());
        if (text.is_ok()) std::printf("%s\n", text.value().c_str());
      }
    } else {
      auto reader = pbio::RecordReader::make(*record.value(),
                                             info.value().sender_format);
      if (reader.is_ok()) print_record_fields(reader.value());
    }
    ++index;
  }
  std::printf("%zu format(s), %d record(s)\n", printed_formats, index);
  if (lint && lint_json) {
    std::string out = "{\"tool\":\"xmit_inspect\",\"findings\":[";
    for (std::size_t i = 0; i < lint_findings.size(); ++i) {
      if (i != 0) out += ",";
      out += lint_findings[i];
    }
    out += "]}\n";
    std::fputs(out.c_str(), stdout);
  }
  return 0;
}
