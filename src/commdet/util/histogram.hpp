// Parallel histogram with atomic fetch-and-add.
//
// Counts keys into shared bins for the graph statistics (degree and
// community-size distributions).  The contraction kernel does not use
// it: it counts through chunk-private histograms instead of the
// paper's per-edge fetch-and-add (contract/label_contractor.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "commdet/util/atomics.hpp"
#include "commdet/util/parallel.hpp"

namespace commdet {

/// Counts occurrences of each key in [0, num_bins).  Keys outside the
/// range are the caller's bug; debug builds assert via vector bounds.
template <typename Key>
[[nodiscard]] std::vector<std::int64_t> parallel_histogram(std::span<const Key> keys,
                                                           std::int64_t num_bins) {
  std::vector<std::int64_t> counts(static_cast<std::size_t>(num_bins), 0);
  parallel_for(static_cast<std::int64_t>(keys.size()), [&](std::int64_t i) {
    atomic_fetch_add(counts[static_cast<std::size_t>(keys[static_cast<std::size_t>(i)])],
                     std::int64_t{1});
  });
  return counts;
}

}  // namespace commdet
