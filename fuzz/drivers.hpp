// Fuzz drivers: one per untrusted-byte decode surface.
//
// A driver pairs a seed corpus (valid wire bytes, so mutations start in
// interesting territory) with a run() that feeds one input through the
// decoder under test. The contract run() enforces is the tentpole's:
// whatever the bytes, the decoder returns a typed Status — it never
// crashes, never hangs, never allocates unboundedly. A driver that
// violates that dies by signal (or a sanitizer report), which is exactly
// what the harness and the fuzz_smoke ctest detect.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace xmit::fuzz {

struct Driver {
  const char* name;
  const char* description;
  std::vector<std::vector<std::uint8_t>> (*seeds)();
  // The returned Status is the decoder's verdict on the input — purely
  // informational for triage; any return at all means "survived".
  Status (*run)(std::span<const std::uint8_t> input);
};

std::span<const Driver> all_drivers();
const Driver* find_driver(std::string_view name);

// The `session` driver's chunked-stream seeds: raw wire images that the
// driver writes in seeded chunks into a plain and a flow-controlled
// receiver (a subset of that driver's seeds).
std::vector<std::vector<std::uint8_t>> session_stream_seeds();

// The canonical hostile corpus: one minimized input per integer-overflow
// / wrong-accept / resource-bomb class that fuzzing surfaced while the
// limits layer was built. Each filename's prefix (up to the first '-')
// names the driver that replays it. `xmit_fuzz --emit-corpus DIR` writes
// them; tests/corpus/ holds the committed copies replayed by ctest.
struct CorpusAttack {
  const char* file;      // e.g. "pbio_record-count-overflow.bin"
  const char* summary;   // what used to go wrong
  std::vector<std::uint8_t> bytes;
};
std::vector<CorpusAttack> canonical_attacks();

}  // namespace xmit::fuzz
