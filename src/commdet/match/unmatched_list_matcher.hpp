// The paper's improved greedy heavy maximal matching (Sec. IV-B).
//
// We "maintain an array of currently unmatched vertices [and] parallelize
// across that array, searching each unmatched vertex u's bucket of
// adjacent edges for the highest-scored unmatched neighbor v.  Once each
// unmatched vertex u finds its best current match, the vertex checks if
// the other side v (also unmatched) has a better match.  We induce a total
// ordering by considering first score and then the vertex indices.  If the
// current vertex u's choice is better, it claims both sides using locks
// [...].  Another pass across the unmatched vertex list checks if the
// claims succeeded.  If not and there was some unmatched neighbor, the
// vertex u remains on the list for another pass."
//
// Every edge lives in exactly one bucket, so every positive edge is
// proposed by its owning endpoint; at convergence (empty list) the
// matching is maximal over positive edges.  Each sweep either matches at
// least one pair (the globally best outstanding offer cannot be beaten)
// or permanently retires list entries, so the sweep count is finite and
// in social-network graphs small, giving effectively O(|E|) work.
//
// The greedy selection keeps the Preis property: the matching's total
// score is within a factor of two of the maximum-weight matching over the
// positive-score subgraph.
#pragma once

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "commdet/graph/community_graph.hpp"
#include "commdet/match/matching.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/util/atomics.hpp"
#include "commdet/util/compact.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/spinlock.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

template <VertexId V>
class UnmatchedListMatcher {
 public:
  [[nodiscard]] Matching<V> match(const CommunityGraph<V>& g,
                                  std::span<const Score> scores) const {
    const auto nv = static_cast<std::int64_t>(g.nv);
    Matching<V> result;
    result.mate.assign(static_cast<std::size_t>(nv), kNoVertex<V>);
    auto& mate = result.mate;

    std::vector<V> proposal(static_cast<std::size_t>(nv), kNoVertex<V>);
    std::vector<Score> proposal_score(static_cast<std::size_t>(nv), 0.0);
    SpinlockTable locks(static_cast<std::size_t>(nv));

    // The unmatched-vertex array: initially every vertex.
    std::vector<V> unmatched(static_cast<std::size_t>(nv));
    std::iota(unmatched.begin(), unmatched.end(), V{0});

    // Sharded counters (null when no metrics registry is installed):
    // resolved once here, incremented from inside the parallel passes
    // without serializing — each thread hits its own cache line.
    obs::Counter* c_proposals = obs::counter("match.proposals");
    obs::Counter* c_deferrals = obs::counter("match.deferrals");
    obs::Counter* c_claim_conflicts = obs::counter("match.claim_conflicts");
    obs::Counter* c_sweeps = obs::counter("match.sweeps");
    obs::Counter* c_retries = obs::counter("match.list_retries");
    obs::Counter* c_edges_scanned = obs::counter("match.edges_scanned");

    std::int64_t pairs = 0;
    while (!unmatched.empty()) {
      ++result.sweeps;

      // Pass 1: each listed vertex scans its own bucket for the best
      // positively-scored unmatched neighbor.  Dynamic schedule: bucket
      // sizes follow the degree distribution.
      //
      // From the second sweep on, a vertex whose last proposal target is
      // still unmatched keeps that proposal without rescanning: the
      // unmatched set only shrinks, so the best offer over it stays the
      // best while its target is free.  The proposals are exactly those a
      // full rescan would make, at a fraction of the edge visits.
      //
      // Offers order by score first, so an edge scoring below the best
      // offer so far cannot win; it is skipped before the random mate[]
      // load and the tie hash.  An equal score still reaches the
      // tie-break.
      parallel_for_dynamic(static_cast<std::int64_t>(unmatched.size()), [&](std::int64_t k) {
        const V u = unmatched[static_cast<std::size_t>(k)];
        const V previous = proposal[static_cast<std::size_t>(u)];
        if (previous != kNoVertex<V> &&
            atomic_load(mate[static_cast<std::size_t>(previous)]) == kNoVertex<V>) {
          if (c_proposals != nullptr) c_proposals->add(1);
          return;
        }
        const auto [bb, be] = g.bucket(u);
        if (c_edges_scanned != nullptr) c_edges_scanned->add(be - bb);
        Offer<V> best;
        V best_target = kNoVertex<V>;
        for (EdgeId e = bb; e < be; ++e) {
          const auto i = static_cast<std::size_t>(e);
          if (scores[i] <= 0.0 || scores[i] < best.score) continue;
          const V v = g.esecond[i];
          if (atomic_load(mate[static_cast<std::size_t>(v)]) != kNoVertex<V>) continue;
          const auto offer = make_offer(scores[i], u, v);
          if (offer.beats(best)) {
            best = offer;
            best_target = v;
          }
        }
        proposal[static_cast<std::size_t>(u)] = best_target;
        proposal_score[static_cast<std::size_t>(u)] = best.score;
        if (c_proposals != nullptr && best_target != kNoVertex<V>) c_proposals->add(1);
      });

      // Pass 2: claim.  u defers when the other side holds a strictly
      // better offer of its own; otherwise it takes both sides under the
      // pair's locks (ascending order, deadlock-free).
      const auto claim = [&](std::int64_t& matched, std::int64_t k) {
        const V u = unmatched[static_cast<std::size_t>(k)];
        const V v = proposal[static_cast<std::size_t>(u)];
        if (v == kNoVertex<V>) return;
        const auto mine = make_offer(proposal_score[static_cast<std::size_t>(u)], u, v);
        const V vs_target = proposal[static_cast<std::size_t>(v)];
        if (vs_target != kNoVertex<V>) {
          const auto theirs =
              make_offer(proposal_score[static_cast<std::size_t>(v)], v, vs_target);
          if (theirs.beats(mine)) {
            if (c_deferrals != nullptr) c_deferrals->add(1);
            return;  // let the better side act
          }
        }
        locks.lock_pair(static_cast<std::size_t>(u), static_cast<std::size_t>(v));
        if (mate[static_cast<std::size_t>(u)] == kNoVertex<V> &&
            mate[static_cast<std::size_t>(v)] == kNoVertex<V>) {
          mate[static_cast<std::size_t>(u)] = v;
          mate[static_cast<std::size_t>(v)] = u;
          ++matched;
        } else if (c_claim_conflicts != nullptr) {
          // Lost the race: a side was claimed between the scan and the lock
          // — the contention the paper's sweep count amortizes.
          c_claim_conflicts->add(1);
        }
        locks.unlock_pair(static_cast<std::size_t>(u), static_cast<std::size_t>(v));
      };
      for (const std::int64_t matched :
           parallel_for_each_thread(static_cast<std::int64_t>(unmatched.size()),
                                    dynamic_schedule(64), [] { return std::int64_t{0}; }, claim))
        pairs += matched;

      // Pass 3: the claim check.  A vertex stays listed only while it is
      // unmatched and saw a potential partner this sweep.
      unmatched = parallel_compact(std::span<const V>(unmatched), [&](V u) {
        return mate[static_cast<std::size_t>(u)] == kNoVertex<V> &&
               proposal[static_cast<std::size_t>(u)] != kNoVertex<V>;
      });
      if (c_retries != nullptr) c_retries->add(static_cast<std::int64_t>(unmatched.size()));
    }

    if (c_sweeps != nullptr) c_sweeps->add(result.sweeps);
    result.num_pairs = pairs;
    return result;
  }
};

}  // namespace commdet
