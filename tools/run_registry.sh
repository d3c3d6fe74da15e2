#!/bin/sh
# run_registry.sh: build and run the registry-labelled tests (LruCache
# pin/evict semantics, sharded-registry concurrency, the XMITSET1
# batched-discovery envelope, and the 10k-format register-storm stress)
# under both AddressSanitizer and ThreadSanitizer.
#
# Usage:
#   tools/run_registry.sh [BUILD_ROOT]
#
# Defaults: BUILD_ROOT=build-registry; each sanitizer gets its own build
# tree (BUILD_ROOT-address, BUILD_ROOT-thread) so the two
# instrumentations never share object files. A clean exit means the
# registry-at-scale matrix is green under both sanitizers — in
# particular, that the sharded by_id path and the eviction-under-decode
# interleavings are race-free, with no suppression file.
set -eu

BUILD_ROOT="${1:-build-registry}"
REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"

for SAN in address thread; do
  BUILD_DIR="$BUILD_ROOT-$SAN"
  echo "== registry [$SAN]: configuring $BUILD_DIR"
  cmake -B "$BUILD_DIR" -S "$REPO_DIR" -DXMIT_SANITIZE="$SAN" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  echo "== registry [$SAN]: building registry tests"
  cmake --build "$BUILD_DIR" \
    --target registry_cache_test registry_stress_test format_set_test \
    -j >/dev/null
  echo "== registry [$SAN]: ctest -L registry"
  (cd "$BUILD_DIR" && ctest -L registry --output-on-failure -j)
done

echo "== registry matrix green under address and thread sanitizers"
