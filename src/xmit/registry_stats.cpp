#include "xmit/registry_stats.hpp"

#include <sstream>

namespace xmit::toolkit {

namespace {

void append_cache_json(std::ostringstream& out, const CacheStats& s) {
  out << "{\"entries\":" << s.entries << ",\"bytes\":" << s.bytes
      << ",\"pinned_entries\":" << s.pinned_entries
      << ",\"pinned_bytes\":" << s.pinned_bytes << ",\"hits\":" << s.hits
      << ",\"misses\":" << s.misses << ",\"evictions\":" << s.evictions
      << ",\"uncacheable\":" << s.uncacheable
      << ",\"max_entries\":" << s.max_entries
      << ",\"max_bytes\":" << s.max_bytes << "}";
}

}  // namespace

RegistryStatsService::RegistryStatsService(net::HttpServer& server,
                                           const pbio::FormatRegistry& registry,
                                           std::string path)
    : server_(server), registry_(registry), path_(std::move(path)) {
  server_.set_get_handler(path_, [this](const std::string&) {
    net::HttpResponse response;
    response.status_code = 200;
    response.content_type = "application/json";
    response.body = render();
    return response;
  });
}

void RegistryStatsService::add_cache(std::string name, StatsFn stats_fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  caches_.emplace_back(std::move(name), std::move(stats_fn));
}

std::string RegistryStatsService::render() const {
  const pbio::FormatRegistry::Stats stats = registry_.stats();
  std::ostringstream out;
  out << "{\"formats\":" << stats.formats << ",\"shards\":[";
  for (std::size_t i = 0; i < stats.shard_sizes.size(); ++i) {
    if (i != 0) out << ",";
    out << stats.shard_sizes[i];
  }
  out << "],\"caches\":{";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    bool first = true;
    for (const auto& [name, fn] : caches_) {
      if (!first) out << ",";
      first = false;
      out << "\"" << name << "\":";
      append_cache_json(out, fn());
    }
  }
  out << "}}";
  return out.str();
}

}  // namespace xmit::toolkit
