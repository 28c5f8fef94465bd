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
// This is that explicitly locking OpenMP implementation: a sweep bids
// edges into per-vertex best-offer slots under per-vertex locks (the
// full/empty-bit analogue), then matches mutual bests.  High-degree
// vertices concentrate lock traffic — the hot spots the improved
// matcher removes.
//
// One bid loop (EdgeSweepOffers::bid) serves two callers:
//   * the flat EdgeSweepMatcher refills its live-edge bitmap with all
//     ones before every sweep, so every sweep walks the whole edge array
//     — the paper's algorithm, as bench_ablation_matching measures it;
//   * the sharded matcher (shard/shard_match.hpp) keeps one bitmap per
//     block across the sweeps of a level.  Within a level scores are
//     fixed and mates are only ever set, so an edge that does not bid in
//     one sweep never bids again: bid clears its bit, and later sweeps
//     pay only for the edges still bidding.
// Within a sweep a slot's held offer only improves, so a bid whose score
// is strictly below the held score cannot win; bid_at drops it with a
// lock-free read before touching the lock.  Equal scores still lock and
// go through Offer::beats, so the final slots — and the matching — are
// the same as with every edge bidding under the lock.
#pragma once

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "commdet/graph/community_graph.hpp"
#include "commdet/match/matching.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/spinlock.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

/// Work of one or more bid calls: the live edges examined, the edges
/// that bid (positive score, both ends unmatched), and the slot locks
/// taken (bids that passed the score pre-check).
struct BidStats {
  std::int64_t visited = 0;
  std::int64_t bids = 0;
  std::int64_t locks = 0;

  BidStats& operator+=(const BidStats& o) noexcept {
    visited += o.visited;
    bids += o.bids;
    locks += o.locks;
    return *this;
  }
};

/// Sets `live` to one bit per edge of an `ne`-edge range, all set; bits
/// past `ne` in the last word stay clear.
inline void fill_live_edges(std::vector<std::uint64_t>& live, EdgeId ne) {
  const auto words = static_cast<std::size_t>((ne + 63) / 64);
  live.assign(words, ~std::uint64_t{0});
  if (const auto tail = static_cast<unsigned>(ne % 64); tail != 0)
    live.back() = (std::uint64_t{1} << tail) - 1;
}

/// The per-vertex best-offer slots of the edge sweep, shared by the
/// flat matcher and the sharded one (shard/shard_match.hpp).
template <VertexId V>
class EdgeSweepOffers {
 public:
  explicit EdgeSweepOffers(std::int64_t nv)
      : best_partner_(static_cast<std::size_t>(nv), kNoVertex<V>),
        best_score_(static_cast<std::size_t>(nv), 0.0),
        locks_(static_cast<std::size_t>(nv)) {}

  /// One sweep over the live edges of a range: each live edge with both
  /// ends unmatched and a positive score bids into both ends' slots
  /// (locked: the hot spot); every other live edge has its bit cleared,
  /// since it can never bid again this level.  `live` holds one bit per
  /// edge (fill_live_edges); each word is read and written by one
  /// thread.  `score_of(i)` reads a stored score or recomputes it inline.
  template <EdgeRange E, typename ScoreOf>
  BidStats bid(const E& edges, ScoreOf&& score_of, const std::vector<V>& mate,
               std::vector<std::uint64_t>& live) {
    const auto words = static_cast<std::int64_t>(live.size());
    assert(words == (static_cast<std::int64_t>(edges.num_edges()) + 63) / 64);
    BidStats total;
    // Dynamic: the live bits thin out unevenly across the range.
    for (const BidStats& part : parallel_for_each_thread(
             words, dynamic_schedule(64), [] { return BidStats{}; },
             [&](BidStats& stats, std::int64_t w) {
               std::uint64_t& word = live[static_cast<std::size_t>(w)];
               std::uint64_t kept = word;
               for (std::uint64_t rest = word; rest != 0; rest &= rest - 1) {
                 const int bit = std::countr_zero(rest);
                 const auto i = static_cast<std::size_t>(w * 64 + bit);
                 ++stats.visited;
                 const V a = edges.efirst[i];
                 const V b = edges.esecond[i];
                 // Score before mates: a stored score is a sequential load
                 // that spares non-positive edges two random mate loads.
                 const Score sc = score_of(i);
                 if (sc <= 0.0 || mate[static_cast<std::size_t>(a)] != kNoVertex<V> ||
                     mate[static_cast<std::size_t>(b)] != kNoVertex<V>) {
                   kept &= ~(std::uint64_t{1} << bit);
                   continue;
                 }
                 ++stats.bids;
                 const auto offer = make_offer(sc, a, b);
                 stats.locks += bid_at(a, b, offer) + bid_at(b, a, offer);
               }
               word = kept;
             }))
      total += part;
    return total;
  }

  /// Matches mutual bests into `mate` and clears the slots; returns the
  /// pairs matched.  The total order guarantees a locally dominant edge
  /// exists, so every sweep with a bid makes progress.
  std::int64_t reconcile(std::vector<V>& mate) {
    const auto nv = static_cast<std::int64_t>(best_partner_.size());
    const std::int64_t matched = parallel_count(nv, [&](std::int64_t u) {
      const V p = best_partner_[static_cast<std::size_t>(u)];
      if (p == kNoVertex<V> || p < static_cast<V>(u)) return false;  // matched from the low side
      if (best_partner_[static_cast<std::size_t>(p)] != static_cast<V>(u)) return false;
      mate[static_cast<std::size_t>(u)] = p;
      mate[static_cast<std::size_t>(p)] = static_cast<V>(u);
      return true;
    });
    parallel_for(nv, [&](std::int64_t v) {
      best_partner_[static_cast<std::size_t>(v)] = kNoVertex<V>;
      best_score_[static_cast<std::size_t>(v)] = 0.0;
    });
    return matched;
  }

 private:
  /// Offers `partner` to `at`'s slot; returns whether the lock was taken.
  /// The held score only rises within a sweep, so an offer scoring
  /// strictly below it is dropped without locking.  The relaxed read
  /// pairs with the relaxed store under the lock.
  bool bid_at(V at, V partner, const Offer<V>& offer) {
    const auto slot = static_cast<std::size_t>(at);
    if (std::atomic_ref<Score>(best_score_[slot]).load(std::memory_order_relaxed) > offer.score)
      return false;
    SpinlockGuard guard(locks_, slot);
    const V current = best_partner_[slot];
    if (current != kNoVertex<V>) {
      const auto held = make_offer(best_score_[slot], at, current);
      if (!offer.beats(held)) return true;
    }
    best_partner_[slot] = partner;
    std::atomic_ref<Score>(best_score_[slot]).store(offer.score, std::memory_order_relaxed);
    return true;
  }

  std::vector<V> best_partner_;
  std::vector<Score> best_score_;
  SpinlockTable locks_;
};

/// The sweep loop: `sweep(offers, mate)` bids the live edges once (bid
/// over one or more edge ranges) and returns their summed BidStats;
/// mutual bests are matched after each sweep, until a sweep has no bids.
/// Each sweep's work goes to the match.edges_visited / edges_bid /
/// bid_locks counters, and the level total to `work` when given.
template <VertexId V, typename Sweep>
[[nodiscard]] Matching<V> edge_sweep_match(std::int64_t nv, Sweep&& sweep,
                                           BidStats* work = nullptr) {
  obs::Counter* c_visited = obs::counter("match.edges_visited");
  obs::Counter* c_bid = obs::counter("match.edges_bid");
  obs::Counter* c_locks = obs::counter("match.bid_locks");
  Matching<V> result;
  result.mate.assign(static_cast<std::size_t>(nv), kNoVertex<V>);
  EdgeSweepOffers<V> offers(nv);
  BidStats total;
  for (;;) {
    ++result.sweeps;
    const BidStats s = sweep(offers, std::as_const(result.mate));
    total += s;
    if (c_visited != nullptr) c_visited->add(s.visited);
    if (c_bid != nullptr) c_bid->add(s.bids);
    if (c_locks != nullptr) c_locks->add(s.locks);
    if (s.bids == 0) break;
    result.num_pairs += offers.reconcile(result.mate);
  }
  if (work != nullptr) *work = total;
  return result;
}

/// The paper's original matcher: every sweep bids every edge (the bitmap
/// is refilled before each sweep).
template <VertexId V>
class EdgeSweepMatcher {
 public:
  [[nodiscard]] Matching<V> match(const CommunityGraph<V>& g,
                                  const std::vector<Score>& scores) const {
    std::vector<std::uint64_t> live;
    return edge_sweep_match<V>(
        static_cast<std::int64_t>(g.nv),
        [&](EdgeSweepOffers<V>& offers, const std::vector<V>& mate) {
          fill_live_edges(live, g.num_edges());
          return offers.bid(g, [&](std::size_t i) { return scores[i]; }, mate, live);
        });
  }
};

}  // namespace commdet
