// FormatRegistry: the per-process table of registered formats.
//
// register_format() is the operation whose cost the paper measures
// (Figures 3 and 6 compare it against the full XMIT path). Lookup by id
// serves incoming records; lookup by name serves binding and evolution
// (a receiver binds its *own* format by name, then converts records whose
// id differs). Thread-safe: registration is rare, lookup is hot.
//
// Scale (DESIGN.md §5k): real deployments carry thousands of live
// formats, registered and looked up concurrently. Both tables are split
// into kShardCount shards, each a plain mutex over one hash map, so
// neither registration nor the per-record by_id() funnels through one
// global lock, and a lookup touches no state shared with lookups on other
// shards. Formats are never evicted from the registry — bounded-memory
// pressure is the job of the caches layered above it (plan cache,
// binding cache).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "pbio/format.hpp"

namespace xmit::pbio {

class FormatRegistry {
 public:
  // Power of two so shard selection is a mask. 16 shards keeps lock
  // collisions rare at realistic thread counts.
  static constexpr std::size_t kShardCount = 16;

  struct Stats {
    std::size_t formats = 0;
    std::array<std::size_t, kShardCount> shard_sizes{};
  };

  FormatRegistry() = default;
  FormatRegistry(const FormatRegistry&) = delete;
  FormatRegistry& operator=(const FormatRegistry&) = delete;

  // Registers a format whose nested type references (if any) resolve to
  // formats already registered here — subformats first, exactly like PBIO.
  // Registering the identical description again returns the existing
  // format (idempotent); a *different* description under the same name
  // becomes the new "current" format for that name, and the old one stays
  // reachable by id (how evolution coexists with in-flight records).
  Result<FormatPtr> register_format(std::string name,
                                    std::vector<IOField> fields,
                                    std::uint32_t struct_size,
                                    const ArchInfo& arch = ArchInfo::host());

  // Registers an externally constructed format (e.g. deserialized from a
  // file header or received from a format server).
  Result<FormatPtr> adopt(FormatPtr format);

  // The hot decode lookup: one brief lock on the id's shard.
  Result<FormatPtr> by_id(FormatId id) const;
  Result<FormatPtr> by_name(std::string_view name) const;  // current version

  // Each of these locks one shard at a time, never the whole registry.
  std::size_t size() const;
  std::vector<FormatPtr> all() const;
  Stats stats() const;

 private:
  // One cache line per shard so lookups on neighbouring shards do not
  // contend on the line holding each other's mutex.
  template <typename Key>
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::unordered_map<Key, FormatPtr> formats XMIT_GUARDED_BY(mutex);
  };

  static std::size_t shard_of(FormatId id) {
    return static_cast<std::size_t>((id ^ (id >> 32)) & (kShardCount - 1));
  }
  static std::size_t shard_of_name(std::string_view name);

  std::array<Shard<FormatId>, kShardCount> id_shards_;
  std::array<Shard<std::string>, kShardCount> name_shards_;
};

}  // namespace xmit::pbio
