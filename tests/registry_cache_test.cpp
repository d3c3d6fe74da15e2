// Bounded caches with pin/evict semantics (DESIGN.md §5k): the LruCache
// contract every format-path cache is built on, the sharded registry's
// behaviour at population, the XMIT binding cache's transparent rebuild
// after eviction, the typed kResourceExhausted when the pinned set alone
// exceeds a budget, the disk-mirror budget, and the session's plan pins.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/cache.hpp"
#include "pbio/decode.hpp"
#include "pbio/dynrecord.hpp"
#include "pbio/encode.hpp"
#include "pbio/registry.hpp"
#include "session/session.hpp"
#include "xmit/xmit.hpp"

namespace xmit {
namespace {

// --- LruCache --------------------------------------------------------------

TEST(LruCache, EvictsLeastRecentlyUsedUnderEntryBudget) {
  LruCache<std::string, int> cache(CacheBudget::of(2, 0));
  (void)cache.put("a", 1, 1);
  (void)cache.put("b", 2, 1);
  (void)cache.get("a");          // refresh: b is now LRU
  (void)cache.put("c", 3, 1);    // evicts b
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(LruCache, ByteBudgetCountsBytesNotEntries) {
  LruCache<std::string, int> cache(CacheBudget::of(0, 100));
  (void)cache.put("a", 1, 60);
  (void)cache.put("b", 2, 30);
  EXPECT_EQ(cache.stats().bytes, 90u);
  (void)cache.put("c", 3, 50);  // evicts a (LRU) to fit
  EXPECT_FALSE(cache.contains("a"));
  EXPECT_EQ(cache.stats().bytes, 80u);
}

TEST(LruCache, ResidentValueWinsInsertRace) {
  // Two threads build the same entry; the loser must adopt the winner's
  // value so pins taken on the returned value are never orphaned.
  LruCache<std::string, int> cache;
  EXPECT_EQ(cache.put("k", 1, 1), 1);
  EXPECT_EQ(cache.put("k", 2, 1), 1);  // resident wins
  EXPECT_EQ(cache.get("k"), 1);
}

TEST(LruCache, PinnedEntriesSurviveAnyPressure) {
  LruCache<std::string, int> cache(CacheBudget::of(2, 0));
  (void)cache.put("pinned", 1, 1);
  ASSERT_TRUE(cache.pin("pinned").is_ok());
  for (int i = 0; i < 10; ++i)
    (void)cache.put("n" + std::to_string(i), i, 1);
  EXPECT_TRUE(cache.contains("pinned"));
  EXPECT_FALSE(cache.erase("pinned"));  // pinned: refuse
  cache.clear();
  EXPECT_TRUE(cache.contains("pinned"));  // clear() keeps pins too
  cache.unpin("pinned");
  EXPECT_TRUE(cache.erase("pinned"));
}

TEST(LruCache, PinnedSetExceedingBudgetIsTypedNotFatal) {
  LruCache<std::string, int> cache(CacheBudget::of(2, 0));
  ASSERT_TRUE(cache.put_pinned("a", 1, 1).is_ok());
  ASSERT_TRUE(cache.put_pinned("b", 2, 1).is_ok());
  // Third pin: the pinned set alone would exceed the budget.
  auto third = cache.put_pinned("c", 3, 1);
  ASSERT_FALSE(third.is_ok());
  EXPECT_EQ(third.code(), ErrorCode::kResourceExhausted);
  // Unpinned inserts degrade to uncached, value still returned.
  EXPECT_EQ(cache.put("d", 4, 1), 4);
  EXPECT_FALSE(cache.contains("d"));
  EXPECT_GE(cache.stats().uncacheable, 1u);
  // Releasing a pin restores capacity.
  cache.unpin("a");
  ASSERT_TRUE(cache.erase("a"));
  EXPECT_TRUE(cache.put_pinned("c", 3, 1).is_ok());
}

TEST(LruCache, ShrinkingBudgetEvictsImmediately) {
  LruCache<std::string, int> cache;
  for (int i = 0; i < 8; ++i) (void)cache.put("k" + std::to_string(i), i, 1);
  ASSERT_TRUE(cache.pin("k7").is_ok());
  cache.set_budget(CacheBudget::of(2, 0));
  EXPECT_LE(cache.size(), 2u);
  EXPECT_TRUE(cache.contains("k7"));
}

// --- sharded registry ------------------------------------------------------

TEST(FormatRegistry, PopulationSpreadsAcrossShardsAndStaysReachable) {
  pbio::FormatRegistry registry;
  std::vector<pbio::FormatId> ids;
  const std::size_t kFormats = 500;
  for (std::size_t i = 0; i < kFormats; ++i) {
    auto format = registry.register_format(
        "S" + std::to_string(i), {{"x", "integer", 4, 0}}, 4);
    ASSERT_TRUE(format.is_ok());
    ids.push_back(format.value()->id());
  }
  EXPECT_EQ(registry.size(), kFormats);
  EXPECT_EQ(registry.all().size(), kFormats);
  for (pbio::FormatId id : ids) ASSERT_TRUE(registry.by_id(id).is_ok());

  auto stats = registry.stats();
  EXPECT_EQ(stats.formats, kFormats);
  std::size_t shard_sum = 0;
  std::size_t populated = 0;
  for (std::size_t size : stats.shard_sizes) {
    shard_sum += size;
    if (size != 0) ++populated;
  }
  EXPECT_EQ(shard_sum, kFormats);
  EXPECT_GT(populated, pbio::FormatRegistry::kShardCount / 2)
      << "id hash is not spreading formats across shards";
}

TEST(FormatRegistry, EvolutionKeepsOldIdReachable) {
  pbio::FormatRegistry registry;
  auto v1 = registry.register_format("Evolve", {{"x", "integer", 4, 0}}, 4);
  ASSERT_TRUE(v1.is_ok());
  auto v2 = registry.register_format(
      "Evolve", {{"x", "integer", 4, 0}, {"y", "integer", 4, 4}}, 8);
  ASSERT_TRUE(v2.is_ok());
  ASSERT_NE(v1.value()->id(), v2.value()->id());
  EXPECT_EQ(registry.by_name("Evolve").value()->id(), v2.value()->id());
  EXPECT_TRUE(registry.by_id(v1.value()->id()).is_ok());  // old stays live
  // Identical re-registration is idempotent.
  auto again = registry.register_format(
      "Evolve", {{"x", "integer", 4, 0}, {"y", "integer", 4, 4}}, 8);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value()->id(), v2.value()->id());
}

// --- decoder plan cache ----------------------------------------------------

struct PlanRow {
  std::int32_t a;
  std::int32_t b;
};

pbio::FormatPtr plan_format(pbio::FormatRegistry& registry,
                            const std::string& name) {
  return registry
      .register_format(name,
                       {{"a", "integer", 4, offsetof(PlanRow, a)},
                        {"b", "integer", 4, offsetof(PlanRow, b)}},
                       sizeof(PlanRow))
      .value();
}

TEST(PlanCache, PinHoldsPlanAndBudgetRefusesSecondPin) {
  pbio::FormatRegistry registry;
  auto first = plan_format(registry, "P1");
  auto second = plan_format(registry, "P2");
  pbio::Decoder decoder(registry);
  decoder.set_plan_cache_budget(CacheBudget::of(1, 0));

  auto pin = decoder.pin_plan(first, *first);
  ASSERT_TRUE(pin.is_ok()) << pin.status().to_string();
  auto refused = decoder.pin_plan(second, *second);
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.code(), ErrorCode::kResourceExhausted);

  {
    auto released = std::move(pin).value();
    (void)released;
  }  // pin released
  EXPECT_TRUE(decoder.pin_plan(second, *second).is_ok());
}

TEST(PlanCache, EvictedPlanRebuildsTransparently) {
  pbio::FormatRegistry registry;
  auto first = plan_format(registry, "P1");
  auto second = plan_format(registry, "P2");
  pbio::Decoder decoder(registry);
  decoder.set_plan_cache_budget(CacheBudget::of(1, 0));

  auto encode = [](const pbio::FormatPtr& format, std::int32_t a) {
    auto encoder = pbio::Encoder::make(format).value();
    PlanRow row{a, a + 1};
    return encoder.encode_to_vector(&row).value();
  };
  Arena arena;
  PlanRow out{};
  for (int round = 0; round < 3; ++round) {
    arena.reset();
    ASSERT_TRUE(decoder.decode(encode(first, round), *first, &out, arena)
                    .is_ok());
    EXPECT_EQ(out.a, round);
    arena.reset();
    ASSERT_TRUE(decoder.decode(encode(second, round), *second, &out, arena)
                    .is_ok());
  }
  auto stats = decoder.plan_cache_stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.entries, 1u);
}

// --- session plan pins -----------------------------------------------------

struct Reading {
  std::int32_t id;
  std::int32_t n;
  float* series;
  char* site;
};

pbio::FormatPtr reading_format(pbio::FormatRegistry& registry) {
  return registry
      .register_format(
          "Reading",
          {{"id", "integer", 4, offsetof(Reading, id)},
           {"n", "integer", 4, offsetof(Reading, n)},
           {"series", "float[n]", 4, offsetof(Reading, series)},
           {"site", "string", sizeof(char*), offsetof(Reading, site)}},
          sizeof(Reading))
      .value();
}

TEST(SessionPlanPins, BatchDecodePinsThePairAgainstEviction) {
  pbio::FormatRegistry sender_registry, receiver_registry;
  session::SessionOptions options;
  options.plan_cache_budget = CacheBudget::of(4, 0);
  auto pair = session::make_session_pipe(sender_registry, receiver_registry,
                                         options)
                  .value();

  auto format = reading_format(sender_registry);
  auto encoder = pbio::Encoder::make(format).value();
  for (int i = 0; i < 3; ++i) {
    std::vector<float> series = {float(i)};
    char site[] = "pin";
    Reading in{i, 1, series.data(), site};
    ASSERT_TRUE(pair.a.send(encoder, &in).is_ok());
  }

  auto receiver = reading_format(receiver_registry);
  alignas(std::max_align_t) Reading out[3] = {};
  auto took = pair.b.receive_batch(*receiver, out, sizeof(Reading), 3, 2000);
  ASSERT_TRUE(took.is_ok()) << took.status().to_string();
  EXPECT_EQ(took.value(), 3u);
  EXPECT_EQ(pair.b.plan_pins_held(), 1u);
  EXPECT_EQ(pair.b.plan_pin_failures(), 0u);
  EXPECT_GE(pair.b.plan_cache_stats().pinned_entries, 1u);
  pair.a.close();
  pair.b.close();
}

// --- Xmit binding cache + disk budget --------------------------------------

constexpr const char* kSchemaA =
    "<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">"
    "<xsd:complexType name=\"Alpha\"><xsd:sequence>"
    "<xsd:element name=\"x\" type=\"xsd:int\"/>"
    "</xsd:sequence></xsd:complexType></xsd:schema>";
constexpr const char* kSchemaB =
    "<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">"
    "<xsd:complexType name=\"Beta\"><xsd:sequence>"
    "<xsd:element name=\"y\" type=\"xsd:double\"/>"
    "</xsd:sequence></xsd:complexType></xsd:schema>";

TEST(XmitFormatCache, EvictedBindingRebuildsTransparently) {
  pbio::FormatRegistry registry;
  toolkit::Xmit xmit(registry);
  ASSERT_TRUE(xmit.load_text(kSchemaA, "a.xsd").is_ok());
  ASSERT_TRUE(xmit.load_text(kSchemaB, "b.xsd").is_ok());
  xmit.set_format_cache_budget(CacheBudget::of(1, 0));

  ASSERT_TRUE(xmit.bind("Alpha").is_ok());
  ASSERT_TRUE(xmit.bind("Beta").is_ok());   // evicts Alpha's binding
  auto rebuilt = xmit.bind("Alpha");        // rebuilt from the registry
  ASSERT_TRUE(rebuilt.is_ok());
  EXPECT_EQ(rebuilt.value().format->name(), "Alpha");
  ASSERT_NE(rebuilt.value().encoder, nullptr);
  auto stats = xmit.format_cache_stats();
  EXPECT_GE(stats.evictions, 1u);
  // Registry still holds both formats: eviction is a cache event only.
  EXPECT_TRUE(registry.by_name("Alpha").is_ok());
  EXPECT_TRUE(registry.by_name("Beta").is_ok());
}

TEST(XmitFormatCache, PinTypeTypedErrors) {
  pbio::FormatRegistry registry;
  toolkit::Xmit xmit(registry);
  ASSERT_TRUE(xmit.load_text(kSchemaA, "a.xsd").is_ok());
  ASSERT_TRUE(xmit.load_text(kSchemaB, "b.xsd").is_ok());
  xmit.set_format_cache_budget(CacheBudget::of(1, 0));

  EXPECT_EQ(xmit.pin_type("NeverLoaded").code(), ErrorCode::kNotFound);
  ASSERT_TRUE(xmit.pin_type("Alpha").is_ok());
  // The pinned set alone now fills the 1-entry budget.
  auto refused = xmit.pin_type("Beta");
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.code(), ErrorCode::kResourceExhausted);
  // Binding still works, just uncached.
  EXPECT_TRUE(xmit.bind("Beta").is_ok());
  EXPECT_TRUE(xmit.bind("Alpha").is_ok());

  xmit.unpin_type("Alpha");
  EXPECT_TRUE(xmit.pin_type("Beta").is_ok());
}

TEST(XmitDiskCache, BudgetDeletesStaleMirrorsKeepsLiveOnes) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() / "xmit_registry_cache_test_disk";
  fs::remove_all(root);
  const fs::path cache_dir = root / "cache";
  fs::create_directories(cache_dir);

  // Stale mirrors left behind by an imaginary earlier process.
  for (int i = 0; i < 6; ++i) {
    std::ofstream(cache_dir / ("stale" + std::to_string(i) + ".xsd"))
        << "<old doc " << i << ">";
  }

  pbio::FormatRegistry registry;
  toolkit::Xmit xmit(registry);
  xmit.set_cache_dir(cache_dir.string());
  xmit.set_disk_cache_budget(CacheBudget::of(2, 0));

  // The source document lives OUTSIDE the cache dir; loading it writes a
  // mirror into the cache dir, and that mirror is pinned (currently
  // loaded) while the stale files are fair game.
  const fs::path doc = root / "source_alpha.xsd";
  std::ofstream(doc) << kSchemaA;
  auto loaded = xmit.load("file://" + doc.string());
  ASSERT_TRUE(loaded.is_ok()) << loaded.to_string();

  EXPECT_GE(xmit.disk_cache_evictions(), 5u);
  std::size_t remaining = 0;
  bool mirror_survives = false;
  for (const auto& entry : fs::directory_iterator(cache_dir)) {
    ++remaining;
    if (entry.path().extension() == ".xsd" &&
        entry.path().filename().string().rfind("stale", 0) != 0)
      mirror_survives = true;
  }
  EXPECT_LE(remaining, 2u);  // the budget
  EXPECT_TRUE(mirror_survives) << "pinned live mirror was evicted";
  EXPECT_TRUE(xmit.bind("Alpha").is_ok());
  fs::remove_all(root);
}

}  // namespace
}  // namespace xmit
