// The paper's *original* matching algorithm, kept as the ablation
// baseline (Sec. IV-B).
//
// "Our earlier implementation iterated in parallel across all of the
// graph's edges on each sweep and relied heavily on the Cray XMT's
// full/empty bits for synchronization of the best match for each vertex.
// This produced frequent hot spots [...] The hot spots crippled an
// explicitly locking OpenMP implementation of the same algorithm on
// Intel-based platforms."
//
// This is that explicitly locking OpenMP implementation: every sweep
// walks the whole edge array, updating per-vertex best-offer slots under
// per-vertex locks (the full/empty-bit analogue), then matches mutual
// bests.  High-degree vertices concentrate lock traffic — the hot spots
// the improved matcher removes.
//
// The bid sweep and the mutual-best reconcile are the sharded matcher's
// too: it runs the same sweep block by block, recomputing scores inline.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "commdet/graph/community_graph.hpp"
#include "commdet/match/matching.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/spinlock.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

/// The per-vertex best-offer slots of the edge sweep, shared by the
/// flat matcher and the sharded one (shard/shard_match.hpp).
template <VertexId V>
class EdgeSweepOffers {
 public:
  explicit EdgeSweepOffers(std::int64_t nv)
      : best_partner_(static_cast<std::size_t>(nv), kNoVertex<V>),
        best_score_(static_cast<std::size_t>(nv), 0.0),
        locks_(static_cast<std::size_t>(nv)) {}

  /// One sweep over an edge range: each positive edge with both ends
  /// unmatched bids into both ends' slots (locked: the hot spot).
  /// `score_of(i)` reads a stored score or recomputes it inline.
  /// Returns the number of bidding edges.
  template <EdgeRange E, typename ScoreOf>
  std::int64_t bid(const E& edges, ScoreOf&& score_of, const std::vector<V>& mate) {
    const EdgeId ne = edges.num_edges();
    std::int64_t candidates = 0;
    ExceptionCollector errors;
#pragma omp parallel for schedule(static) reduction(+ : candidates)
    for (EdgeId e = 0; e < ne; ++e) {
      if (errors.armed()) continue;
      errors.run([&] {
        const auto i = static_cast<std::size_t>(e);
        const Score sc = score_of(i);
        if (sc <= 0.0) return;
        const V a = edges.efirst[i];
        const V b = edges.esecond[i];
        if (mate[static_cast<std::size_t>(a)] != kNoVertex<V> ||
            mate[static_cast<std::size_t>(b)] != kNoVertex<V>)
          return;
        ++candidates;
        const auto offer = make_offer(sc, a, b);
        bid_at(a, b, offer);
        bid_at(b, a, offer);
      });
    }
    errors.rethrow_if_armed();
    return candidates;
  }

  /// Matches mutual bests into `mate` and clears the slots; returns the
  /// pairs matched.  The total order guarantees a locally dominant edge
  /// exists, so every sweep with a bid makes progress.
  std::int64_t reconcile(std::vector<V>& mate) {
    const auto nv = static_cast<std::int64_t>(best_partner_.size());
    std::int64_t matched = 0;
#pragma omp parallel for schedule(static) reduction(+ : matched)
    for (std::int64_t u = 0; u < nv; ++u) {
      const V p = best_partner_[static_cast<std::size_t>(u)];
      if (p == kNoVertex<V> || p < static_cast<V>(u)) continue;  // pair handled from the low side
      if (best_partner_[static_cast<std::size_t>(p)] == static_cast<V>(u)) {
        mate[static_cast<std::size_t>(u)] = p;
        mate[static_cast<std::size_t>(p)] = static_cast<V>(u);
        ++matched;
      }
    }
    parallel_for(nv, [&](std::int64_t v) {
      best_partner_[static_cast<std::size_t>(v)] = kNoVertex<V>;
      best_score_[static_cast<std::size_t>(v)] = 0.0;
    });
    return matched;
  }

 private:
  void bid_at(V at, V partner, const Offer<V>& offer) {
    SpinlockGuard guard(locks_, static_cast<std::size_t>(at));
    const V current = best_partner_[static_cast<std::size_t>(at)];
    if (current != kNoVertex<V>) {
      const auto held = make_offer(best_score_[static_cast<std::size_t>(at)], at, current);
      if (!offer.beats(held)) return;
    }
    best_partner_[static_cast<std::size_t>(at)] = partner;
    best_score_[static_cast<std::size_t>(at)] = offer.score;
  }

  std::vector<V> best_partner_;
  std::vector<Score> best_score_;
  SpinlockTable locks_;
};

/// The sweep loop: `sweep(offers, mate)` bids every edge once (bid over
/// one or more edge ranges) and returns the bidding edges; mutual bests
/// are matched after each sweep, until a sweep has no bids.
template <VertexId V, typename Sweep>
[[nodiscard]] Matching<V> edge_sweep_match(std::int64_t nv, Sweep&& sweep) {
  Matching<V> result;
  result.mate.assign(static_cast<std::size_t>(nv), kNoVertex<V>);
  EdgeSweepOffers<V> offers(nv);
  for (;;) {
    ++result.sweeps;
    if (sweep(offers, std::as_const(result.mate)) == 0) break;
    result.num_pairs += offers.reconcile(result.mate);
  }
  return result;
}

template <VertexId V>
class EdgeSweepMatcher {
 public:
  [[nodiscard]] Matching<V> match(const CommunityGraph<V>& g,
                                  const std::vector<Score>& scores) const {
    return edge_sweep_match<V>(
        static_cast<std::int64_t>(g.nv),
        [&](EdgeSweepOffers<V>& offers, const std::vector<V>& mate) {
          return offers.bid(g, [&](std::size_t i) { return scores[i]; }, mate);
        });
  }
};

}  // namespace commdet
