// Blocked two-pass parallel prefix sums.
//
// Contraction stores buckets contiguously, which "requires synchronizing
// on a prefix sum to compute bucket offsets" (Sec. IV-C).  This is that
// prefix sum: each thread scans a block, block totals are scanned
// sequentially (tiny), then each block is rebased.
#pragma once

#include <omp.h>

#include <cstdint>
#include <span>
#include <vector>

namespace commdet {

/// In-place exclusive prefix sum.  Returns the total of all inputs.
template <typename T>
T exclusive_prefix_sum(std::span<T> values) {
  const std::int64_t n = static_cast<std::int64_t>(values.size());
  if (n == 0) return T{};

  const int max_threads = omp_get_max_threads();
  std::vector<T> block_totals(static_cast<std::size_t>(max_threads) + 1, T{});
  int used_threads = 1;

#pragma omp parallel
  {
    const int tid = omp_get_thread_num();
    const int nthreads = omp_get_num_threads();
#pragma omp single
    used_threads = nthreads;

    const std::int64_t chunk = (n + nthreads - 1) / nthreads;
    const std::int64_t begin = tid * chunk;
    const std::int64_t end = begin + chunk < n ? begin + chunk : n;

    // Pass 1: local exclusive scan of this thread's block.
    T running{};
    for (std::int64_t i = begin; i < end; ++i) {
      const T value = values[static_cast<std::size_t>(i)];
      values[static_cast<std::size_t>(i)] = running;
      running += value;
    }
    block_totals[static_cast<std::size_t>(tid) + 1] = running;

#pragma omp barrier
#pragma omp single
    {
      for (int t = 1; t <= nthreads; ++t) block_totals[t] += block_totals[t - 1];
    }

    // Pass 2: rebase the block by the sum of all preceding blocks.
    const T base = block_totals[static_cast<std::size_t>(tid)];
    for (std::int64_t i = begin; i < end; ++i)
      values[static_cast<std::size_t>(i)] += base;
  }

  return block_totals[static_cast<std::size_t>(used_threads)];
}

}  // namespace commdet
