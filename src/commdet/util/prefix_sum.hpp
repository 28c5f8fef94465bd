// Blocked two-pass parallel prefix sums.
//
// Contraction stores buckets contiguously, which "requires synchronizing
// on a prefix sum to compute bucket offsets" (Sec. IV-C).  This is that
// prefix sum: each thread scans one block of at least 8192 values, the
// calling thread scans the block totals, then each block is rebased.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "commdet/util/parallel.hpp"

namespace commdet {

/// In-place exclusive prefix sum.  Returns the total of all inputs.
template <typename T>
T exclusive_prefix_sum(std::span<T> values) {
  const auto n = static_cast<std::int64_t>(values.size());
  if (n == 0) return T{};
  const std::int64_t nblocks = std::clamp<std::int64_t>(n >> 13, 1, parallel_threads());
  const auto begin = [&](std::int64_t b) { return static_cast<std::size_t>(n * b / nblocks); };
  std::vector<T> block_total(static_cast<std::size_t>(nblocks) + 1, T{});

  // Pass 1: local exclusive scan of each block.
  parallel_for(nblocks, [&](std::int64_t b) {
    T running{};
    for (std::size_t i = begin(b), end = begin(b + 1); i < end; ++i) {
      const T value = values[i];
      values[i] = running;
      running += value;
    }
    block_total[static_cast<std::size_t>(b) + 1] = running;
  });
  for (std::size_t b = 1; b < block_total.size(); ++b) block_total[b] += block_total[b - 1];

  // Pass 2: rebase each block by the sum of all preceding blocks.
  parallel_for(nblocks, [&](std::int64_t b) {
    const T base = block_total[static_cast<std::size_t>(b)];
    for (std::size_t i = begin(b), end = begin(b + 1); i < end; ++i) values[i] += base;
  });
  return block_total.back();
}

}  // namespace commdet
