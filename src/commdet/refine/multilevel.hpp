// Multilevel (V-cycle) refinement.
//
// The paper's algorithm coarsens bottom-up; its graph-partitioning
// ancestors (multilevel k-way partitioners) pair that coarsening with
// refinement at *every* level of the hierarchy on the way back down —
// coarse moves first (whole proto-communities migrate cheaply), then
// progressively finer ones, ending with single-vertex moves.  This
// module implements that full V-cycle on top of the dendrogram the
// driver records and the flat refine_partition() kernel:
//
//   for level k = K-1 .. 0:
//     G_k  := original graph aggregated by the level-k assignment
//     move level-k communities between final communities via
//     refine_partition(G_k, assignment)
//     project the improved assignment down to level k-1
//
// Because each G_k node is one level-k community, refining G_k moves
// whole subtrees of the dendrogram; level 0 degenerates to the flat
// vertex refinement.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "commdet/core/clustering.hpp"
#include "commdet/core/extraction.hpp"
#include "commdet/core/metrics.hpp"
#include "commdet/graph/community_graph.hpp"
#include "commdet/refine/refine.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

struct MultilevelRefineStats {
  int levels_refined = 0;
  std::int64_t total_moves = 0;
  double modularity_before = 0.0;
  double modularity_after = 0.0;
};

/// V-cycle refinement of `clustering` over the original graph g.
/// Requires the clustering to carry its hierarchy
/// (AgglomerationOptions::track_hierarchy).  Updates
/// clustering.community, final_modularity, and num_communities in place.
template <VertexId V>
MultilevelRefineStats multilevel_refine(const CommunityGraph<V>& g,
                                        Clustering<V>& clustering,
                                        const RefineOptions& opts = {}) {
  MultilevelRefineStats stats;
  const int depth = static_cast<int>(clustering.hierarchy.size());
  const auto nv = static_cast<std::int64_t>(g.nv);
  if (nv == 0) return stats;

  bool first = true;
  // Current assignment of original vertices, updated coarse-to-fine.
  std::vector<V> assignment = clustering.community;

  for (int level = depth - 1; level >= 0; --level) {
    // Level-k nodes: communities after `level` contractions.
    const auto node_of = clustering.labels_at_level(level);
    std::int64_t num_nodes = 0;
    for (const V n : node_of) num_nodes = std::max<std::int64_t>(num_nodes, n + 1);

    // Aggregate the original graph by level-k nodes, and lift the
    // current assignment onto those nodes.
    const auto coarse = aggregate_by_labels(g, std::span<const V>(node_of));
    std::vector<V> node_assignment(static_cast<std::size_t>(num_nodes));
    parallel_for(nv, [&](std::int64_t v) {
      // Every member of a node stores the same value: its node's
      // members share one assignment, so the store is relaxed atomic.
      std::atomic_ref<V>(
          node_assignment[static_cast<std::size_t>(node_of[static_cast<std::size_t>(v)])])
          .store(assignment[static_cast<std::size_t>(v)], std::memory_order_relaxed);
    });

    const auto r = refine_partition(coarse, node_assignment, opts);
    if (first) {
      stats.modularity_before = r.modularity_before;
      first = false;
    }
    stats.modularity_after = r.modularity_after;
    stats.total_moves += r.moves;
    ++stats.levels_refined;

    // Project the refined (re-densified) node assignment back to
    // original vertices.
    parallel_for(nv, [&](std::int64_t v) {
      assignment[static_cast<std::size_t>(v)] =
          node_assignment[static_cast<std::size_t>(node_of[static_cast<std::size_t>(v)])];
    });
  }

  if (depth == 0) {
    // No hierarchy: degenerate to flat refinement.
    const auto r = refine_partition(g, assignment, opts);
    stats.modularity_before = r.modularity_before;
    stats.modularity_after = r.modularity_after;
    stats.total_moves += r.moves;
    stats.levels_refined = 1;
  }

  clustering.community = std::move(assignment);
  const auto q = evaluate_partition(
      g, std::span<const V>(clustering.community.data(), clustering.community.size()));
  clustering.num_communities = q.num_communities;
  clustering.final_modularity = q.modularity;
  clustering.final_coverage = q.coverage;
  stats.modularity_after = q.modularity;
  return stats;
}

}  // namespace commdet
