// Parallel triangle counting and clustering coefficients.
//
// Social-network substrate: the global clustering coefficient is the
// standard check that a generator produces social-network-like structure
// (high for caveman/Watts-Strogatz, low for Erdős–Rényi), and per-vertex
// counts feed the social_network_analysis example.
//
// Algorithm: node-iterator with sorted adjacency intersection.  Each
// triangle {u < v < w} is counted exactly once by intersecting the
// higher-neighbor lists of its two smaller endpoints.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "commdet/graph/community_graph.hpp"
#include "commdet/graph/csr.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

struct TriangleStats {
  std::int64_t triangles = 0;          // global count
  std::int64_t wedges = 0;             // paths of length 2
  double global_clustering = 0.0;      // 3 * triangles / wedges
  double mean_local_clustering = 0.0;  // average over vertices with degree >= 2
};

/// Per-vertex triangle counts (unweighted; multi-edge weights ignored).
template <VertexId V>
[[nodiscard]] std::vector<std::int64_t> triangle_counts(const CsrGraph<V>& g) {
  const auto nv = static_cast<std::int64_t>(g.num_vertices());

  // Higher-neighbor lists, sorted: neighbor u of v with u > v.
  std::vector<std::vector<V>> higher(static_cast<std::size_t>(nv));
  parallel_for_dynamic(nv, [&](std::int64_t v) {
    auto& list = higher[static_cast<std::size_t>(v)];
    for (const V u : g.neighbors_of(static_cast<V>(v)))
      if (static_cast<std::int64_t>(u) > v) list.push_back(u);
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  });

  std::vector<std::int64_t> count(static_cast<std::size_t>(nv), 0);
  parallel_for_dynamic(nv, [&](std::int64_t v) {
    const auto& nv_list = higher[static_cast<std::size_t>(v)];
    for (const V u : nv_list) {
      // |higher(v) ∩ higher(u)| closes triangles {v, u, w}, v < u < w.
      const auto& nu_list = higher[static_cast<std::size_t>(u)];
      auto it_v = nv_list.begin();
      auto it_u = nu_list.begin();
      while (it_v != nv_list.end() && it_u != nu_list.end()) {
        if (*it_v < *it_u) {
          ++it_v;
        } else if (*it_u < *it_v) {
          ++it_u;
        } else {
          const V w = *it_v;
          std::atomic_ref<std::int64_t>(count[static_cast<std::size_t>(v)])
              .fetch_add(1, std::memory_order_relaxed);
          std::atomic_ref<std::int64_t>(count[static_cast<std::size_t>(u)])
              .fetch_add(1, std::memory_order_relaxed);
          std::atomic_ref<std::int64_t>(count[static_cast<std::size_t>(w)])
              .fetch_add(1, std::memory_order_relaxed);
          ++it_v;
          ++it_u;
        }
      }
    }
  });
  return count;
}

/// Global and mean-local clustering coefficients.
template <VertexId V>
[[nodiscard]] TriangleStats triangle_stats(const CsrGraph<V>& g) {
  const auto nv = static_cast<std::int64_t>(g.num_vertices());
  const auto tri = triangle_counts(g);

  // Unique-neighbor degrees (multi-edges collapse for wedge counting).
  std::vector<std::int64_t> degree(static_cast<std::size_t>(nv), 0);
  parallel_for_dynamic(nv, [&](std::int64_t v) {
    auto nbrs = g.neighbors_of(static_cast<V>(v));
    std::vector<V> unique(nbrs.begin(), nbrs.end());
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
    degree[static_cast<std::size_t>(v)] = static_cast<std::int64_t>(unique.size());
  });

  TriangleStats s;
  s.triangles = parallel_sum<std::int64_t>(
                    nv, [&](std::int64_t v) { return tri[static_cast<std::size_t>(v)]; }) /
                3;
  s.wedges = parallel_sum<std::int64_t>(nv, [&](std::int64_t v) {
    const auto d = degree[static_cast<std::size_t>(v)];
    return d * (d - 1) / 2;
  });
  if (s.wedges > 0)
    s.global_clustering = 3.0 * static_cast<double>(s.triangles) / static_cast<double>(s.wedges);

  const std::int64_t eligible =
      parallel_count(nv, [&](std::int64_t v) { return degree[static_cast<std::size_t>(v)] >= 2; });
  const double local_sum = parallel_sum<double>(nv, [&](std::int64_t v) {
    const auto d = static_cast<double>(degree[static_cast<std::size_t>(v)]);
    const auto t = static_cast<double>(tri[static_cast<std::size_t>(v)]);
    return d < 2 ? 0.0 : t / (d * (d - 1) / 2.0);
  });
  if (eligible > 0) s.mean_local_clustering = local_sum / static_cast<double>(eligible);
  return s;
}

}  // namespace commdet
