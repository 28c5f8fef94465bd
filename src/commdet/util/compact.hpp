// Order-preserving parallel compaction (stream filter).
//
// The matching algorithm keeps "an array of currently unmatched vertices"
// and re-packs it each sweep (Sec. IV-B); this is the pack primitive.
// largest_component filters and relabels its edges through it too.
// Each thread counts one block's survivors (blocks of at least 8192), the
// calling thread turns counts into offsets, each thread places its own.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "commdet/util/parallel.hpp"

namespace commdet {

/// Writes map(x) for each element x of `input` satisfying `pred` into a
/// new vector, preserving their relative order (`map` defaults to the
/// identity).  `pred` runs twice per element.  The output does not depend
/// on the thread count.
template <typename T, typename Pred, typename Map = std::identity>
[[nodiscard]] auto parallel_compact(std::span<const T> input, Pred&& pred, Map&& map = {}) {
  std::vector<std::remove_cvref_t<std::invoke_result_t<Map&, const T&>>> output;
  const auto n = static_cast<std::int64_t>(input.size());
  if (n == 0) return output;
  const std::int64_t nblocks = std::clamp<std::int64_t>(n >> 13, 1, parallel_threads());
  const auto begin = [&](std::int64_t b) { return static_cast<std::size_t>(n * b / nblocks); };
  std::vector<std::int64_t> offset(static_cast<std::size_t>(nblocks) + 1, 0);

  parallel_for(nblocks, [&](std::int64_t b) {
    std::int64_t kept = 0;
    for (std::size_t i = begin(b), end = begin(b + 1); i < end; ++i)
      if (pred(input[i])) ++kept;
    offset[static_cast<std::size_t>(b) + 1] = kept;
  });
  for (std::size_t b = 1; b < offset.size(); ++b) offset[b] += offset[b - 1];
  // The calling thread allocates the output.  Allocated by a worker, it
  // came from that worker's malloc arena, whose freed pages stay
  // resident where later allocations on other threads cannot reuse them.
  output.resize(static_cast<std::size_t>(offset.back()));

  parallel_for(nblocks, [&](std::int64_t b) {
    auto cursor = static_cast<std::size_t>(offset[static_cast<std::size_t>(b)]);
    for (std::size_t i = begin(b), end = begin(b + 1); i < end; ++i)
      if (pred(input[i])) output[cursor++] = map(input[i]);
  });
  return output;
}

}  // namespace commdet
