// Shard-local scoring: the paper's per-edge scoring pass run block by
// block over a ShardedGraph.
//
// Each shard scores its own edge block with the unsharded kernel
// (score_edges over one edge range); the only remote data an edge needs
// is its second endpoint's (volume, self weight).  When that endpoint is
// remote (a ghost), exchange point 1 of the protocol (DESIGN.md)
// delivers this state in a multi-node port.  Here the per-vertex arrays
// are shared memory, so the "exchange" is a read.
//
// Scores are NOT materialized: the driver only needs the summary here,
// and the matcher recomputes scores inline per sweep — the out-of-core
// point is precisely not to hold |E|-long arrays.
#pragma once

#include <algorithm>
#include <span>

#include "commdet/robust/fault_injection.hpp"
#include "commdet/score/score_edges.hpp"
#include "commdet/shard/sharded_graph.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

/// Scores every edge of every shard (blocks leased one at a time) and
/// returns the driver's termination summary.
template <VertexId V, EdgeScorer S>
[[nodiscard]] ScoreSummary sharded_score_summary(ShardedGraph<V>& sg, const S& scorer) {
  COMMDET_FAULT_POINT(fault::kScore, Phase::kScore);
  ScoreSummary summary;
  for_each_edge_range(sg, [&](const ShardBlock<V>& b) {
    const auto block = score_edges(b, sg, scorer, std::span<Score>{});
    summary.positive_edges += block.positive_edges;
    summary.max_score = std::max(summary.max_score, block.max_score);
  });
  return summary;
}

}  // namespace commdet
