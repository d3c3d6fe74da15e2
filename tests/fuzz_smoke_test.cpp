// Bounded in-process fuzzing as a ctest: ~10k deterministic iterations
// per driver. A memory error here crashes the test binary (and under
// -DXMIT_SANITIZE=ON produces an ASan/UBSan report); a hang trips the
// ctest timeout. The seed is fixed, so a failure reproduces exactly with
//   xmit_fuzz --driver <name> --seed 20260805 --iters 10000
// Registered under the `fuzz` ctest label (ctest -L fuzz).
#include <gtest/gtest.h>

#include "fuzz/drivers.hpp"
#include "fuzz/fuzzer.hpp"

namespace xmit::fuzz {
namespace {

constexpr std::uint64_t kSmokeSeed = 20260805;
constexpr int kSmokeIterations = 10000;

class FuzzSmoke : public ::testing::TestWithParam<const Driver*> {};

TEST_P(FuzzSmoke, SurvivesMutatedInputs) {
  const Driver& driver = *GetParam();
  auto corpus = driver.seeds();
  ASSERT_FALSE(corpus.empty()) << driver.name << " has no seeds";

  // Every seed must pass its own decoder cleanly — otherwise mutations
  // explore failure handling of a baseline that was already broken.
  for (const auto& seed : corpus)
    EXPECT_TRUE(driver.run(seed).is_ok())
        << driver.name << " seed rejected: " << driver.run(seed).to_string();

  Mutator mutator(kSmokeSeed);
  for (int i = 0; i < kSmokeIterations; ++i) {
    auto input = mutator.next(corpus);
    // The assertion is implicit: run() returning at all (no crash, no
    // hang, no sanitizer abort) is the property under test.
    (void)driver.run(input);
  }
}

// The session driver's chunked-stream mode on its own: raw wire images,
// mutated length prefixes included, written in seeded chunk sizes into a
// plain and a flow-controlled receiver.
TEST(FuzzSmoke, SessionChunkedStreamSurvivesMutatedInputs) {
  const Driver* driver = find_driver("session");
  ASSERT_NE(driver, nullptr);
  auto corpus = session_stream_seeds();
  ASSERT_FALSE(corpus.empty());
  for (const auto& seed : corpus)
    EXPECT_TRUE(driver->run(seed).is_ok())
        << "stream seed rejected: " << driver->run(seed).to_string();

  Mutator mutator(kSmokeSeed + 1);
  for (int i = 0; i < 2 * kSmokeIterations; ++i)
    (void)driver->run(mutator.next(corpus));
}

std::vector<const Driver*> driver_pointers() {
  std::vector<const Driver*> out;
  for (const Driver& driver : all_drivers()) out.push_back(&driver);
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllDrivers, FuzzSmoke,
                         ::testing::ValuesIn(driver_pointers()),
                         [](const auto& info) {
                           return std::string(info.param->name);
                         });

}  // namespace
}  // namespace xmit::fuzz
