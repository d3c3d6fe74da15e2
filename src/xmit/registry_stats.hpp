// Live registry introspection over HTTP (DESIGN.md §5k).
//
// A deployment holding 10k formats needs to see where they sit and what
// the bounded caches are doing without stopping the process. The service
// renders one JSON document — registry occupancy per shard and the
// CacheStats of every cache registered with it (decoder plan cache, XMIT
// binding cache, ...) — and serves it from a dynamic GET endpoint,
// freshly computed per request. All the sources are internally
// synchronized (registry stats lock one shard at a time, cache stats
// take the cache's own lock), so a poll holds up a decode for at most
// one brief shard lock.
//
// `xmit_inspect --registry URL` is the matching client.
#pragma once

#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/cache.hpp"
#include "common/thread_annotations.hpp"
#include "net/http.hpp"
#include "pbio/registry.hpp"

namespace xmit::toolkit {

class RegistryStatsService {
 public:
  // Installs a GET handler at `path`. `registry` and `server` must
  // outlive the service, and the service must outlive the server's accept
  // loop (the handler captures `this`).
  RegistryStatsService(net::HttpServer& server,
                       const pbio::FormatRegistry& registry,
                       std::string path = "/registry/stats");

  // A named cache whose stats join the document. `stats_fn` runs on the
  // server thread at request time; it must stay callable for the
  // service's lifetime (cache stats() methods are internally locked).
  using StatsFn = std::function<CacheStats()>;
  void add_cache(std::string name, StatsFn stats_fn);

  std::string url() const { return server_.url_for(path_); }

  // The JSON document the endpoint serves, rendered now.
  std::string render() const;

 private:
  net::HttpServer& server_;
  const pbio::FormatRegistry& registry_;
  std::string path_;
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, StatsFn>> caches_ XMIT_GUARDED_BY(mutex_);
};

}  // namespace xmit::toolkit
