// Parallel merge sort over random-access ranges.
//
// Used where a whole array needs one global order: delta normalisation
// (graph/delta.hpp) and edge-list sanitizing (robust/sanitize.hpp).
// Building and contracting graphs sort per bucket instead.  Recursive
// task-based merge sort: std::sort at the leaves, std::inplace_merge on
// the way up.  Deterministic (callers sort by full keys).
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <iterator>

namespace commdet {

namespace detail {

template <typename It, typename Compare>
void merge_sort_rec(It first, It last, Compare& comp, std::int64_t grain) {
  const auto n = static_cast<std::int64_t>(std::distance(first, last));
  if (n <= grain) {
    std::sort(first, last, comp);
    return;
  }
  const It mid = first + n / 2;
#pragma omp task shared(comp) if (n > 4 * grain)
  merge_sort_rec(first, mid, comp, grain);
  merge_sort_rec(mid, last, comp, grain);
#pragma omp taskwait
  std::inplace_merge(first, mid, last, comp);
}

}  // namespace detail

/// Sorts [first, last) with `comp` using OpenMP tasks.  Safe to call from
/// inside or outside a parallel region.
template <typename It, typename Compare = std::less<>>
void parallel_sort(It first, It last, Compare comp = {}) {
  constexpr std::int64_t kGrain = 1 << 14;
  if (omp_in_parallel()) {
    detail::merge_sort_rec(first, last, comp, kGrain);
    return;
  }
#pragma omp parallel
#pragma omp single nowait
  detail::merge_sort_rec(first, last, comp, kGrain);
}

}  // namespace commdet
