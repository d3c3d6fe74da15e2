#!/bin/sh
# run_chaos.sh: build and run the chaos-labelled tests (the deterministic
# per-byte kill matrix, TCP kill/RST injection, and the liveness personas)
# and the transport-labelled tests (the channel's buffered framer: read-
# ahead, compaction, growth, split frames, the sweep, the cost ledger's
# exact counts and the zero-allocation cases) under both AddressSanitizer
# and ThreadSanitizer.
#
# Usage:
#   tools/run_chaos.sh [BUILD_ROOT]
#
# Defaults: BUILD_ROOT=build-chaos; each sanitizer gets its own build tree
# (BUILD_ROOT-address, BUILD_ROOT-thread) so the two instrumentations never
# share object files. A clean exit means the full reconnect/replay matrix
# is green under both sanitizers.
set -eu

BUILD_ROOT="${1:-build-chaos}"
REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"

for SAN in address thread; do
  BUILD_DIR="$BUILD_ROOT-$SAN"
  echo "== chaos [$SAN]: configuring $BUILD_DIR"
  cmake -B "$BUILD_DIR" -S "$REPO_DIR" -DXMIT_SANITIZE="$SAN" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  echo "== chaos [$SAN]: building session_chaos_test net_test session_test cost_ledger_test zero_alloc_test"
  cmake --build "$BUILD_DIR" --target session_chaos_test net_test \
    session_test cost_ledger_test zero_alloc_test -j >/dev/null
  echo "== chaos [$SAN]: ctest -L chaos"
  (cd "$BUILD_DIR" && ctest -L chaos --output-on-failure -j)
  echo "== chaos [$SAN]: ctest -L transport"
  (cd "$BUILD_DIR" && ctest -L transport --output-on-failure -j)
done

echo "== chaos matrix and transport tests green under address and thread sanitizers"
