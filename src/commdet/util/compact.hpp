// Order-preserving parallel compaction (stream filter).
//
// The matching algorithm keeps "an array of currently unmatched vertices"
// and re-packs it each sweep (Sec. IV-B); this is the pack primitive.
// largest_component filters and relabels its edges through it too.
#pragma once

#include <omp.h>

#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "commdet/util/prefix_sum.hpp"

namespace commdet {

/// Writes map(x) for each element x of `input` satisfying `pred` into a
/// new vector, preserving their relative order (`map` defaults to the
/// identity).  Runs in two passes: per-thread counting, prefix sum of
/// counts, then placement, so the output does not depend on the thread
/// count.
template <typename T, typename Pred, typename Map = std::identity>
[[nodiscard]] auto parallel_compact(std::span<const T> input, Pred&& pred, Map&& map = {}) {
  const std::int64_t n = static_cast<std::int64_t>(input.size());
  const int max_threads = omp_get_max_threads();
  std::vector<std::int64_t> thread_counts(static_cast<std::size_t>(max_threads) + 1, 0);

  std::vector<std::remove_cvref_t<std::invoke_result_t<Map&, const T&>>> output;

#pragma omp parallel
  {
    const int tid = omp_get_thread_num();
    const int nthreads = omp_get_num_threads();
    const std::int64_t chunk = (n + nthreads - 1) / nthreads;
    const std::int64_t begin = tid * chunk;
    const std::int64_t end = begin + chunk < n ? begin + chunk : n;

    std::int64_t local = 0;
    for (std::int64_t i = begin; i < end; ++i)
      if (pred(input[static_cast<std::size_t>(i)])) ++local;
    thread_counts[static_cast<std::size_t>(tid) + 1] = local;

#pragma omp barrier
    // The calling thread allocates the output.  Allocated by whichever
    // worker reached an `omp single`, it came from that worker's malloc
    // arena, whose freed pages stay resident where later allocations on
    // other threads cannot reuse them.
#pragma omp master
    {
      for (int t = 1; t <= nthreads; ++t) thread_counts[t] += thread_counts[t - 1];
      output.resize(static_cast<std::size_t>(thread_counts[nthreads]));
    }
#pragma omp barrier

    std::int64_t cursor = thread_counts[static_cast<std::size_t>(tid)];
    for (std::int64_t i = begin; i < end; ++i) {
      const T& value = input[static_cast<std::size_t>(i)];
      if (pred(value)) output[static_cast<std::size_t>(cursor++)] = map(value);
    }
  }

  return output;
}

}  // namespace commdet
