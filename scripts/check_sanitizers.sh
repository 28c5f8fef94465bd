#!/usr/bin/env bash
# Builds and runs the test suite under the sanitizers:
#
#   1. ASan + UBSan over the full tier-1 suite, then the contraction,
#      bucket copy-out, detection-facade, matching (edge-sweep kernel
#      included), shard, graph-build,
#      largest-component, delta-apply and parallel-primitive tests again
#      at OMP_NUM_THREADS=4,
#   2. TSan at OMP_NUM_THREADS=4 over the parallel primitives, the
#      concurrency-heavy matcher/contraction/driver and delta-apply tests
#      plus the streaming-service suite (a full TSan run is minutes of
#      overhead; the data-race surface lives in match/, contract/, the
#      parallel primitives, and the serve writer/reader exchange), and a
#      canary race that TSan must report.
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
      -R 'Contract|SortAndAccumulate|CopyOut|DetectFacade|Match|UnmatchedList|EdgeSweep|Shard|Builder|Cc|ApplyDelta|Parallel|PrefixSum|Compact|Sort|Histogram|Metrics'
}

run_tsan() {
  echo "== TSan at 4 threads: primitives / matcher / contraction / driver tests =="
  # One build call for all targets, so they compile in parallel.  The
  # Makefile generator runs the targets of one call one after another
  # (its top-level Makefile is .NOTPARALLEL), so a fresh build-tsan is
  # generated for Ninja when it is installed; an existing build-tsan
  # keeps its generator.
  local generator=()
  if [[ ! -f build-tsan/CMakeCache.txt ]] && command -v ninja > /dev/null; then
    generator=(-G Ninja)
  fi
  cmake -B build-tsan -S . "${generator[@]}" -DCOMMDET_SANITIZE="thread" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build build-tsan -j "${jobs}" --target \
    util_parallel_test util_spinlock_test match_test contract_test \
    agglomerate_test robust_budget_test sanitize_test obs_test \
    serve_test telemetry_test cluster_test algo_test shard_test dyn_test \
    detect_facade_test tsan_canary > /dev/null
  # libgomp is not instrumented; util/parallel.hpp, the only code that
  # opens an OpenMP region, tells TSan where each region forks and joins,
  # so the suite runs at 4 threads.  TsanCanary races on purpose and must
  # be reported (WILL_FAIL).  libstdc++'s atomic<shared_ptr> hides its
  # lock-bit happens-before from TSan; scripts/tsan.supp suppresses that.
  OMP_NUM_THREADS=4 TSAN_OPTIONS="halt_on_error=1 suppressions=$(pwd)/scripts/tsan.supp" \
    ctest --test-dir build-tsan --output-on-failure -j "${jobs}" \
      -R "ParallelFor|ParallelSum|ParallelCount|ParallelMax|ParallelExceptions|ExceptionCollector|PrefixSum|Compact|Sort|Histogram|Spinlock|Match|EdgeSweep|Contract|CopyOut|DetectFacade|Agglomerate|Sanitize|BudgetTracker|Obs|Serve|Telemetry|Cluster|Algo|Shard|ApplyDelta|TsanCanary"
}

case "${mode}" in
  asan) run_asan ;;
  tsan) run_tsan ;;
  all)  run_asan; run_tsan ;;
  *) echo "usage: $0 [asan|tsan|all]" >&2; exit 2 ;;
esac
echo "sanitizer checks passed"
