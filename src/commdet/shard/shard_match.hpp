// Shard-local matching with boundary-edge reconciliation — exchange
// point 2 of the protocol in DESIGN.md.
//
// This is the edge-sweep matcher run block by block: every sweep leases
// each shard that still has live edges in turn and runs
// EdgeSweepOffers::bid over them, bidding each positive edge into BOTH
// endpoints' best-offer slots.  For a cut edge the second endpoint is
// remote (a ghost, owned by another shard), so the bid crosses the shard
// boundary — here through the shared offer slots, in a multi-node port
// as an offer message to the remote endpoint's owner.  The
// reconciliation that makes this safe is the same one that makes the
// shared-memory matcher deterministic: offers are compared under a TOTAL
// order (score, then a hash tie-break — Offer::beats), so each slot's
// final content is the maximum over all offers regardless of arrival
// order, and the mutual-best reconcile then agrees on every cut edge
// from both sides without negotiation.  Consequently the matching is
// bit-identical for ANY shard count, including K=1 versus the unsharded
// EdgeSweepMatcher (which re-bids every edge each sweep; the edges the
// bitmaps below skip could not bid there either).
//
// Scores are recomputed inline from the scorer (edge_context, the same
// expression as the scoring pass, hence the same doubles) instead of
// reading an |E|-long array — out-of-core runs can't afford one.
//
// Each block keeps a live-edge bitmap (one bit per edge) across the
// sweeps of a level: bid clears the bits of edges that can no longer
// bid, so a sweep costs the edges still bidding, not the block.  A block
// whose last sweep had no bid has an all-zero bitmap and is not leased
// again, so a spilled block is re-read only while it still has bidding
// edges.
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
/// EdgeSweepMatcher on the assembled graph, for any shard count.  The
/// level's bid work goes to `work` when given.
template <VertexId V, EdgeScorer S>
[[nodiscard]] Matching<V> sharded_match(ShardedGraph<V>& sg, const S& scorer,
                                        BidStats* work = nullptr) {
  const auto k = static_cast<std::size_t>(sg.num_shards());
  std::vector<std::vector<std::uint64_t>> live(k);
  std::vector<std::int64_t> live_count(k);  // set bits of live[s]
  for (std::size_t s = 0; s < k; ++s) {
    fill_live_edges(live[s], sg.shards[s].num_edges());
    live_count[s] = sg.shards[s].num_edges();
  }
  return edge_sweep_match<V>(
      static_cast<std::int64_t>(sg.nv),
      [&](EdgeSweepOffers<V>& offers, const std::vector<V>& mate) {
        BidStats sweep;
        for (std::size_t s = 0; s < k; ++s) {
          if (live_count[s] == 0) continue;  // no edge of the block can bid
          BlockLease<V> lease(sg, static_cast<int>(s));
          const ShardBlock<V>& b = lease.block();
          const BidStats block = offers.bid(
              b, [&](std::size_t i) { return scorer.score(edge_context(b, sg, i)); }, mate,
              live[s]);
          live_count[s] = block.bids;
          sweep += block;
          lease.close();
        }
        return sweep;
      },
      work);
}

}  // namespace commdet
