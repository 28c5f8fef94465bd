// Shard-local matching with boundary-edge reconciliation — exchange
// point 2 of the protocol in DESIGN.md.
//
// This is the edge-sweep matcher run block by block: every sweep leases
// each shard in turn and runs EdgeSweepOffers::bid over its edges,
// bidding each positive edge into BOTH endpoints' best-offer slots.  For
// a cut edge one of those endpoints is a ghost, so the bid crosses the
// shard boundary — here through the shared offer slots, in a multi-node
// port as an offer message to the ghost's owner.  The reconciliation
// that makes this safe is the same one that makes the shared-memory
// matcher deterministic: offers are compared under a TOTAL order
// (score, then a hash tie-break — Offer::beats), so each slot's final
// content is the maximum over all offers regardless of arrival order,
// and the mutual-best reconcile then agrees on every cut edge from both
// sides without negotiation.  Consequently the matching is bit-identical
// for ANY shard count, including K=1 versus the unsharded
// EdgeSweepMatcher.
//
// Scores are recomputed inline from the scorer (edge_context, the same
// expression as the scoring pass, hence the same doubles) instead of
// reading an |E|-long array — out-of-core runs can't afford one.
// Spilled blocks are re-read once per sweep; sweep counts are small in
// practice (the total order guarantees progress every sweep).
#pragma once

#include <cstdint>
#include <vector>

#include "commdet/match/edge_sweep_matcher.hpp"
#include "commdet/match/matching.hpp"
#include "commdet/score/score_edges.hpp"
#include "commdet/shard/sharded_graph.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

/// Heavy maximal matching over a ShardedGraph; same result as
/// EdgeSweepMatcher on the assembled graph, for any shard count.
template <VertexId V, EdgeScorer S>
[[nodiscard]] Matching<V> sharded_match(ShardedGraph<V>& sg, const S& scorer) {
  return edge_sweep_match<V>(
      static_cast<std::int64_t>(sg.nv),
      [&](EdgeSweepOffers<V>& offers, const std::vector<V>& mate) {
        std::int64_t candidates = 0;
        for_each_edge_range(sg, [&](const ShardBlock<V>& b) {
          candidates += offers.bid(
              b, [&](std::size_t i) { return scorer.score(edge_context(b, sg, i)); }, mate);
        });
        return candidates;
      });
}

}  // namespace commdet
