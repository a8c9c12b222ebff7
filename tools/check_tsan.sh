#!/usr/bin/env bash
# Builds the parallel-search tests under ThreadSanitizer and runs them.
# A standing race detector for the clause-search worker pool: any data race
# in ThreadPool, the per-worker LiteralSearcher scratch, or the hop-1
# propagation results fails this script (each pool task refreshes its own
# cache entry or fills its own result slot, hop-2 tasks read those results,
# lanes write look-ahead views into their own scratch, and only the search
# round's sequential code looks up, admits or erases cache entries; the
# propagation oracle runs here for the pair engine those lanes share).
# The fault-matrix suite rides along for the connection-thread registry:
# accept-side reaping, shutdown-side joining, and injected mid-connection
# failures all racing one another.
# The AttrIndex equivalence suite rides along because parallel workers share
# the lazily built attribute indexes (faulted in by the tasks that read
# them), and the IndexCache suite races concurrent Gets against budget
# eviction to exercise the single-flight build path.
# The columnar suite rides along because a `.cmdb`-loaded database hands
# borrowed mmap spans to those same workers (copy-on-write on mutation).
# The prediction referee rides along because `Predict` and `Explain` run
# concurrently in the serve pool against shared, lazily built indexes.
#
# Usage: tools/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Tsan
cmake --build "$BUILD_DIR" -j \
  --target parallel_search_test clause_builder_test serve_test \
  propagation_oracle_test attr_index_test index_cache_test columnar_test \
  fault_matrix_test predict_referee_test

export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
"$BUILD_DIR"/tests/parallel_search_test
"$BUILD_DIR"/tests/clause_builder_test
"$BUILD_DIR"/tests/serve_test
"$BUILD_DIR"/tests/propagation_oracle_test
"$BUILD_DIR"/tests/attr_index_test
"$BUILD_DIR"/tests/index_cache_test
"$BUILD_DIR"/tests/columnar_test
"$BUILD_DIR"/tests/fault_matrix_test
"$BUILD_DIR"/tests/predict_referee_test

echo "check_tsan: OK (no races reported)"
