// The scoring primitive: one independent calculation per community-graph
// edge, stored in an |E|-long array of doubles (paper Sec. IV-B).  The
// kernel runs over one edge range, so the sharded driver scores block by
// block without materializing the array.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "commdet/graph/community_graph.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/robust/fault_injection.hpp"
#include "commdet/score/scorers.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

/// Summary of a scoring pass, used by the driver's termination test.
struct ScoreSummary {
  EdgeId positive_edges = 0;
  Score max_score = 0.0;
};

/// The scorer's inputs for edge i of an edge range, read from the
/// per-vertex state `g`.  Every score in the library is computed from
/// this, so a recomputed score is the same double as a stored one.
template <EdgeRange E, VertexState G>
[[nodiscard]] EdgeContext edge_context(const E& edges, const G& g, std::size_t i) noexcept {
  const auto c = static_cast<std::size_t>(edges.efirst[i]);
  const auto d = static_cast<std::size_t>(edges.esecond[i]);
  return EdgeContext{
      .edge_weight = edges.eweight[i],
      .volume_c = g.volume[c],
      .volume_d = g.volume[d],
      .self_c = g.self_weight[c],
      .self_d = g.self_weight[d],
      .total_weight = g.total_weight,
  };
}

/// Scores every edge of one edge range against the per-vertex state `g`
/// and returns the summary.  Writes `scores[e]` when `scores` is
/// non-empty (it must then hold one slot per edge); the sharded driver
/// passes none and keeps only the summary, block by block.
template <EdgeRange E, VertexState G, EdgeScorer S>
ScoreSummary score_edges(const E& edges, const G& g, const S& scorer,
                         std::span<Score> scores) {
  const EdgeId ne = edges.num_edges();
  ScoreSummary sum;
  for (const ScoreSummary& part : parallel_for_each_thread(
           ne, kStaticSchedule, [] { return ScoreSummary{}; }, [&](ScoreSummary& acc, EdgeId e) {
             const auto i = static_cast<std::size_t>(e);
             const Score s = scorer.score(edge_context(edges, g, i));
             if (!scores.empty()) scores[i] = s;
             if (s > 0.0) {
               ++acc.positive_edges;
               if (s > acc.max_score) acc.max_score = s;
             }
           })) {
    sum.positive_edges += part.positive_edges;
    sum.max_score = std::max(sum.max_score, part.max_score);
  }

  // Phase-granularity metrics: the per-edge work is already reduced by
  // the loop above, so one add per call suffices (and costs nothing when
  // no registry is installed).
  if (obs::Counter* c = obs::counter("score.edges_scored")) c->add(ne);
  if (obs::Counter* c = obs::counter("score.positive_edges")) c->add(sum.positive_edges);
  return sum;
}

/// Fills `scores[e]` for every edge of g.  `scores` is resized to match.
template <VertexId V, EdgeScorer S>
ScoreSummary score_edges(const CommunityGraph<V>& g, const S& scorer,
                         std::vector<Score>& scores) {
  COMMDET_FAULT_POINT(fault::kScore, Phase::kScore);
  scores.resize(static_cast<std::size_t>(g.num_edges()));
  return score_edges(g, g, scorer, std::span<Score>(scores));
}

}  // namespace commdet
