// Descriptive statistics over a community graph: degree distribution and
// weight totals.  Used by examples, the Table II harness, and the run
// report's degree/community-size summaries.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "commdet/graph/community_graph.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

struct GraphStats {
  std::int64_t num_vertices = 0;
  std::int64_t num_edges = 0;       // unique undirected non-self edges
  Weight total_weight = 0;          // edges + self loops
  Weight self_loop_weight = 0;
  std::int64_t min_degree = 0;      // unweighted degree (unique neighbors)
  std::int64_t max_degree = 0;
  double mean_degree = 0.0;
  std::int64_t isolated_vertices = 0;
};

/// Five-number-style summary of a non-negative integer distribution
/// (degrees, community sizes), plus a log2 histogram: bucket b counts
/// values whose bit width is b (0 -> {0}, 1 -> {1}, 2 -> {2,3}, ...) —
/// the compact shape descriptor social-network power laws call for.
struct DistributionSummary {
  std::int64_t count = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  double mean = 0.0;
  std::int64_t p50 = 0;
  std::int64_t p90 = 0;
  std::int64_t p99 = 0;
  std::vector<std::int64_t> log2_buckets;
};

namespace detail {

/// counts[k] = |{i in [0, n) : key_of(i) == k}|, in at most n / bins chunks.
template <typename KeyOf>
[[nodiscard]] std::vector<std::int64_t> count_keys(std::int64_t n, std::int64_t bins,
                                                   KeyOf key_of) {
  std::vector<std::int64_t> counts(static_cast<std::size_t>(bins), 0);
  const auto count = [&](std::int64_t begin, std::int64_t end, const auto& acc) {
    for (std::int64_t i = begin; i < end; ++i) ++acc[0][static_cast<std::size_t>(key_of(i))];
  };
  parallel_chunk_add(n, std::clamp<std::int64_t>(n / std::max<std::int64_t>(bins, 1), 1,
                                                 parallel_threads()),
                     std::array{std::span<std::int64_t>(counts)}, count);
  return counts;
}

}  // namespace detail

/// Summarizes `values` (each >= 0).  Report-time cost: one sort of a
/// copy for exact percentiles.
[[nodiscard]] inline DistributionSummary summarize_values(
    std::span<const std::int64_t> values) {
  DistributionSummary s;
  s.count = static_cast<std::int64_t>(values.size());
  if (values.empty()) return s;

  std::vector<std::int64_t> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  double total = 0.0;
  for (const auto v : sorted) total += static_cast<double>(v);
  s.mean = total / static_cast<double>(sorted.size());
  const auto at = [&](double q) {
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
  };
  s.p50 = at(0.50);
  s.p90 = at(0.90);
  s.p99 = at(0.99);

  const auto max_width =
      static_cast<std::int64_t>(std::bit_width(static_cast<std::uint64_t>(s.max)));
  s.log2_buckets = detail::count_keys(s.count, max_width + 1, [&](std::int64_t i) {
    return std::bit_width(static_cast<std::uint64_t>(sorted[static_cast<std::size_t>(i)]));
  });
  return s;
}

/// Unweighted degree (bucket entries from both endpoints) per vertex.
template <VertexId V>
[[nodiscard]] std::vector<std::int64_t> degree_array(const CommunityGraph<V>& g) {
  const EdgeId ne = g.num_edges();
  return detail::count_keys(2 * ne, g.nv, [&](std::int64_t i) {
    const auto e = static_cast<std::size_t>(i < ne ? i : i - ne);
    return i < ne ? g.efirst[e] : g.esecond[e];
  });
}

/// Degree-distribution summary for the run report.
template <VertexId V>
[[nodiscard]] DistributionSummary degree_distribution(const CommunityGraph<V>& g) {
  const auto degree = degree_array(g);
  return summarize_values(std::span<const std::int64_t>(degree));
}

/// Community-size distribution of a labeling with labels dense in
/// [0, num_communities): sizes come from one chunk-private count.
template <VertexId V>
[[nodiscard]] DistributionSummary community_size_distribution(
    std::span<const V> labels, std::int64_t num_communities) {
  if (num_communities <= 0) return {};
  const auto sizes =
      detail::count_keys(static_cast<std::int64_t>(labels.size()), num_communities,
                         [&](std::int64_t i) { return labels[static_cast<std::size_t>(i)]; });
  return summarize_values(std::span<const std::int64_t>(sizes));
}

template <VertexId V>
[[nodiscard]] GraphStats graph_stats(const CommunityGraph<V>& g) {
  const auto nv = static_cast<std::int64_t>(g.nv);
  const EdgeId ne = g.num_edges();

  const std::vector<std::int64_t> degree = degree_array(g);

  GraphStats s;
  s.num_vertices = nv;
  s.num_edges = ne;
  s.total_weight = g.total_weight;
  s.self_loop_weight =
      parallel_sum<Weight>(nv, [&](std::int64_t v) { return g.self_weight[static_cast<std::size_t>(v)]; });
  if (nv > 0) {
    s.min_degree = *std::min_element(degree.begin(), degree.end());
    s.max_degree = *std::max_element(degree.begin(), degree.end());
    s.mean_degree = 2.0 * static_cast<double>(ne) / static_cast<double>(nv);
    s.isolated_vertices =
        parallel_count(nv, [&](std::int64_t v) { return degree[static_cast<std::size_t>(v)] == 0; });
  }
  return s;
}

}  // namespace commdet
