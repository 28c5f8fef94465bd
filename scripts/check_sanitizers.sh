#!/usr/bin/env bash
# Builds and runs the test suite under the sanitizers:
#
#   1. ASan + UBSan over the full tier-1 suite, then the contraction,
#      matching (edge-sweep kernel included), shard, graph-build,
#      largest-component and delta-apply tests again at OMP_NUM_THREADS=4,
#   2. TSan over the concurrency-heavy matcher/contractor/driver and
#      delta-apply tests plus the streaming-service suite (a full TSan run is minutes of
#      overhead; the data-race surface lives in match/, contract/, the
#      parallel primitives, and the serve writer/reader exchange).
#
# Usage: scripts/check_sanitizers.sh [asan|tsan|all]   (default: all)
set -euo pipefail

cd "$(dirname "$0")/.."
mode="${1:-all}"
jobs="$(nproc)"

run_asan() {
  echo "== ASan + UBSan: full test suite =="
  cmake -B build-asan -S . -DCOMMDET_SANITIZE="address,undefined" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build build-asan -j "${jobs}" --target all > /dev/null
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-asan --output-on-failure -j "${jobs}"
  echo "== ASan + UBSan: kernel tests at 4 threads =="
  OMP_NUM_THREADS=4 ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-asan --output-on-failure -j "${jobs}" \
      -R 'Contract|SortAndAccumulate|Match|UnmatchedList|EdgeSweep|Shard|Builder|Cc|ApplyDelta'
}

run_tsan() {
  echo "== TSan: matcher / contractor / parallel-driver tests =="
  cmake -B build-tsan -S . -DCOMMDET_SANITIZE="thread" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  for t in util_parallel_test util_spinlock_test match_test contract_test \
           agglomerate_test robust_budget_test sanitize_test obs_test \
           serve_test telemetry_test cluster_test algo_test shard_test dyn_test; do
    cmake --build build-tsan -j "${jobs}" --target "${t}" > /dev/null
  done
  # OpenMP runtimes trip TSan's lock-order heuristics without the
  # instrumented libomp, and libstdc++'s atomic<shared_ptr> hides its
  # lock-bit happens-before from TSan; suppress known-benign runtime
  # internals (see scripts/tsan.supp).
  TSAN_OPTIONS="halt_on_error=1 suppressions=$(pwd)/scripts/tsan.supp" \
    ctest --test-dir build-tsan --output-on-failure -j "${jobs}" \
      -R "ParallelFor|ParallelSum|ParallelCount|ParallelMax|ParallelExceptions|ExceptionCollector|Spinlock|Match|EdgeSweep|Contract|Agglomerate|Sanitize|BudgetTracker|Obs|Serve|Telemetry|Cluster|Algo|Shard|ApplyDelta"
}

case "${mode}" in
  asan) run_asan ;;
  tsan) run_tsan ;;
  all)  run_asan; run_tsan ;;
  *) echo "usage: $0 [asan|tsan|all]" >&2; exit 2 ;;
esac
echo "sanitizer checks passed"
