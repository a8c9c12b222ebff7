#!/usr/bin/env bash
# Builds the serving stack under AddressSanitizer (+UBSan) and runs the
# protocol / server unit tests plus the live end-to-end smoke test. A
# standing memory-error detector for the new long-lived path: buffer
# handling in the JSON codec and the TCP line reader, promise/future
# lifetimes across drain, and the connection-teardown ordering. Also runs
# the propagation oracle: the hop kernel's view compaction and
# exact-size copy, run boundaries and in-place erasure are exactly the
# kind of offset arithmetic ASan exists for.
# The corruption and fault suites ride along so every rejected corrupt
# input and every injected failure path is also memory-clean: an
# out-of-bounds parse of hostile bytes is a failure even when it does not
# crash the unsanitized build — the columnar suites matter most here,
# since the `.cmdb` loader parses offsets out of an mmap'd file and hands
# zero-copy spans to the engine. The AttrIndex suite runs here too: the
# counting-sort build's per-value cursors and CSR posting arithmetic are
# classic off-by-one territory, as are the radix passes and buffer swaps
# of `SortPairs` that the idset suite checks, and the IndexCache
# suite thrashes eviction while handles are still live — a use-after-free
# hunt by construction. The prediction referee rides along: the clause
# evaluator's packed (tuple, position) pairs index |ids|-sized position
# arrays, and its in-place pair compaction is offset arithmetic.
# The clause-builder suite runs the look-ahead views: each lane writes its
# view into its own scratch, the literal search walks it unsorted, and
# `Append` materializes an accepted hop from the hop-1 pairs the search
# handed it. The parallel-search suite runs the propagation cache at 4
# threads and under a slot budget: hop-1 results move from task slots into
# the cache, tasks refresh cache entries through pointers, and failed
# refreshes are erased — lifetimes ASan checks.
# The common suite runs the CRC-32 referee: it hands the PCLMULQDQ folding
# kernel every length 0..4096 at every start offset in an allocation that
# ends at the last byte, so a SIMD load past the tail is caught here.
#
# Usage: tools/check_asan.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Asan
cmake --build "$BUILD_DIR" -j \
  --target common_test protocol_test serve_test propagation_oracle_test \
  idset_test attr_index_test index_cache_test csv_corruption_test \
  columnar_test columnar_corruption_test fault_matrix_test \
  predict_referee_test literal_search_test clause_builder_test \
  parallel_search_test crossmine_cli serve_client

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1 ${UBSAN_OPTIONS:-}"
"$BUILD_DIR"/tests/common_test
"$BUILD_DIR"/tests/protocol_test
"$BUILD_DIR"/tests/serve_test
"$BUILD_DIR"/tests/propagation_oracle_test
"$BUILD_DIR"/tests/idset_test
"$BUILD_DIR"/tests/attr_index_test
"$BUILD_DIR"/tests/index_cache_test
"$BUILD_DIR"/tests/csv_corruption_test
"$BUILD_DIR"/tests/columnar_test
"$BUILD_DIR"/tests/columnar_corruption_test
"$BUILD_DIR"/tests/fault_matrix_test
"$BUILD_DIR"/tests/predict_referee_test
"$BUILD_DIR"/tests/literal_search_test
"$BUILD_DIR"/tests/clause_builder_test
"$BUILD_DIR"/tests/parallel_search_test
bash tools/check_serve_smoke.sh \
  "$BUILD_DIR"/tools/crossmine "$BUILD_DIR"/tools/serve_client

echo "check_asan: OK (no memory errors reported)"
