// Registry-at-scale stress (DESIGN.md §5k), built to run under TSan:
// writer threads register a 10k-format corpus while decoder threads go
// through by_id and decode live records with a tiny plan-cache budget
// forcing evictions mid-run, and a poller hammers the stats paths. Afterwards every registration must be reachable (no lost
// inserts), every decode must have succeeded (no use-after-evict — an
// evicted plan rebuilds transparently), and a pinned plan must have
// survived the churn.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "common/cache.hpp"
#include "pbio/decode.hpp"
#include "pbio/encode.hpp"
#include "pbio/registry.hpp"

namespace xmit {
namespace {

struct StressRow {
  std::int32_t a;
  std::int32_t b;
};

constexpr std::size_t kWriters = 4;
constexpr std::size_t kReaders = 4;
constexpr std::size_t kPerWriter = 2500;  // 10k formats total

Result<pbio::FormatPtr> register_stress_format(
    pbio::FormatRegistry& registry, std::size_t writer, std::size_t k) {
  // Distinct names -> distinct ids; a rotating aux field name varies the
  // metadata being hashed so shard distribution is realistic.
  return registry.register_format(
      "W" + std::to_string(writer) + "_" + std::to_string(k),
      {{"a", "integer", 4, offsetof(StressRow, a)},
       {"aux" + std::to_string(k % 7), "integer", 4,
        offsetof(StressRow, b)}},
      sizeof(StressRow));
}

TEST(RegistryStress, StormOfWritersReadersAndEvictionLosesNothing) {
  pbio::FormatRegistry registry;

  std::mutex published_mutex;
  std::vector<pbio::FormatPtr> published;
  published.reserve(kWriters * kPerWriter);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> register_failures{0};
  std::atomic<std::size_t> lookup_failures{0};
  std::atomic<std::size_t> decode_failures{0};
  std::atomic<std::size_t> decodes_run{0};
  std::atomic<bool> go{false};

  std::vector<std::thread> threads;

  for (std::size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t k = 0; k < kPerWriter; ++k) {
        auto format = register_stress_format(registry, w, k);
        if (!format.is_ok()) {
          register_failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        std::lock_guard<std::mutex> lock(published_mutex);
        published.push_back(format.value());
      }
    });
  }

  for (std::size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      pbio::Decoder decoder(registry);
      // A budget far below the live format count: evictions are constant
      // while the storm runs, so every plan hit rides the rebuild path.
      decoder.set_plan_cache_budget(CacheBudget::of(4, 0));
      Arena arena;
      std::size_t cursor = r;  // stagger the readers
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!done.load(std::memory_order_acquire)) {
        pbio::FormatPtr format;
        {
          std::lock_guard<std::mutex> lock(published_mutex);
          if (!published.empty())
            format = published[cursor++ % published.size()];
        }
        if (!format) {
          std::this_thread::yield();
          continue;
        }
        // The registry must serve what a writer already published.
        if (!registry.by_id(format->id()).is_ok())
          lookup_failures.fetch_add(1, std::memory_order_relaxed);
        // Encode + decode through the churning plan cache.
        auto encoder = pbio::Encoder::make(format);
        if (!encoder.is_ok()) {
          decode_failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        StressRow in{static_cast<std::int32_t>(cursor), 7};
        auto bytes = encoder.value().encode_to_vector(&in);
        StressRow out{};
        arena.reset();
        if (!bytes.is_ok() ||
            !decoder.decode(bytes.value(), *format, &out, arena).is_ok() ||
            out.a != in.a)
          decode_failures.fetch_add(1, std::memory_order_relaxed);
        else
          decodes_run.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Poller: the diagnostics surface, hit concurrently with the storm —
  // stats(), size(), all() must never tear.
  threads.emplace_back([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    while (!done.load(std::memory_order_acquire)) {
      auto stats = registry.stats();
      std::size_t shard_sum = 0;
      for (std::size_t size : stats.shard_sizes) shard_sum += size;
      if (shard_sum != stats.formats)
        lookup_failures.fetch_add(1, std::memory_order_relaxed);
      (void)registry.size();
      (void)registry.all();
      std::this_thread::yield();
    }
  });

  go.store(true, std::memory_order_release);
  // Writers finish first; readers and the poller run until then.
  for (std::size_t w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true, std::memory_order_release);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(register_failures.load(), 0u);
  EXPECT_EQ(lookup_failures.load(), 0u);
  EXPECT_EQ(decode_failures.load(), 0u);
  EXPECT_GT(decodes_run.load(), 0u);

  // No lost registrations: every published format resolves by id, and the
  // registry's own accounting agrees with the corpus size.
  ASSERT_EQ(published.size(), kWriters * kPerWriter);
  EXPECT_EQ(registry.size(), published.size());
  for (const auto& format : published) {
    auto found = registry.by_id(format->id());
    ASSERT_TRUE(found.is_ok()) << "lost registration: " << format->name();
    EXPECT_EQ(found.value()->name(), format->name());
  }

  auto stats = registry.stats();
  EXPECT_EQ(stats.formats, published.size());
}

TEST(RegistryStress, PinnedPlanSurvivesEvictionStorm) {
  pbio::FormatRegistry registry;
  auto pinned_format = register_stress_format(registry, 9, 0).value();

  pbio::Decoder decoder(registry);
  decoder.set_plan_cache_budget(CacheBudget::of(2, 0));
  auto pin = decoder.pin_plan(pinned_format, *pinned_format);
  ASSERT_TRUE(pin.is_ok()) << pin.status().to_string();

  // Two threads churn the remaining budget with fresh (sender, receiver)
  // pairs while a third keeps decoding through the pinned plan.
  std::atomic<bool> done{false};
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Arena arena;
      for (std::size_t k = 1; k < 200; ++k) {
        auto format = register_stress_format(registry, t, k);
        if (!format.is_ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        StressRow in{static_cast<std::int32_t>(k), 0};
        auto bytes = pbio::Encoder::make(format.value())
                         .value()
                         .encode_to_vector(&in);
        StressRow out{};
        arena.reset();
        if (!bytes.is_ok() ||
            !decoder.decode(bytes.value(), *format.value(), &out, arena)
                 .is_ok())
          failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&] {
    Arena arena;
    auto encoder = pbio::Encoder::make(pinned_format).value();
    while (!done.load(std::memory_order_acquire)) {
      StressRow in{42, 1};
      auto bytes = encoder.encode_to_vector(&in);
      StressRow out{};
      arena.reset();
      if (!bytes.is_ok() ||
          !decoder.decode(bytes.value(), *pinned_format, &out, arena)
               .is_ok() ||
          out.a != 42)
        failures.fetch_add(1, std::memory_order_relaxed);
    }
  });
  threads[0].join();
  threads[1].join();
  done.store(true, std::memory_order_release);
  threads[2].join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_TRUE(pin.value().holds());
  auto stats = decoder.plan_cache_stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_GE(stats.pinned_entries, 1u);
}

}  // namespace
}  // namespace xmit
