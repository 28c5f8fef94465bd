// Parallel merge sort over random-access ranges.
//
// Used where a whole array needs one global order: delta normalisation
// (graph/delta.hpp) and edge-list sanitizing (robust/sanitize.hpp).
// Building and contracting graphs sort per bucket instead.  Merge sort
// whose tree depends only on the length: leaves sorted in one parallel
// loop, then merged one depth at a time, so the output is the same for
// every thread count, ties included.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include "commdet/util/parallel.hpp"

namespace commdet {

/// Sorts [first, last) with `comp`.  A range of at most 2^14 elements is
/// sorted on the calling thread.
template <typename It, typename Compare = std::less<>>
void parallel_sort(It first, It last, Compare comp = {}) {
  constexpr std::int64_t kGrain = 1 << 14;
  const auto n = static_cast<std::int64_t>(std::distance(first, last));
  if (n <= kGrain) {
    std::sort(first, last, comp);
    return;
  }
  // The recursion tree: leaves, and merges[d] = the pieces split at depth d.
  using Piece = std::pair<std::int64_t, std::int64_t>;  // [first, second)
  std::vector<Piece> leaves;
  std::vector<std::vector<Piece>> merges;
  const auto split = [&](const auto& self, Piece p, std::size_t depth) -> void {
    if (p.second - p.first <= kGrain) return leaves.push_back(p);
    if (merges.size() == depth) merges.emplace_back();
    merges[depth].push_back(p);
    const std::int64_t mid = p.first + (p.second - p.first) / 2;
    self(self, Piece{p.first, mid}, depth + 1);
    self(self, Piece{mid, p.second}, depth + 1);
  };
  split(split, Piece{0, n}, 0);
  parallel_for_dynamic(static_cast<std::int64_t>(leaves.size()), [&](std::int64_t i) {
    const auto [b, e] = leaves[static_cast<std::size_t>(i)];
    std::sort(first + b, first + e, comp);
  }, /*chunk=*/1);
  for (auto d = merges.rbegin(); d != merges.rend(); ++d)
    parallel_for_dynamic(static_cast<std::int64_t>(d->size()), [&](std::int64_t i) {
      const auto [b, e] = (*d)[static_cast<std::size_t>(i)];
      std::inplace_merge(first + b, first + (b + (e - b) / 2), first + e, comp);
    }, /*chunk=*/1);
}

}  // namespace commdet
