// Matching result type and shared helpers.
//
// A matching pairs neighboring communities for contraction.  All matchers
// produce pairs only across positively-scored edges, and guarantee
// maximality over those edges: at completion no positive-score edge has
// both endpoints unmatched (paper Sec. III/IV-B).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "commdet/graph/community_graph.hpp"
#include "commdet/util/rng.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

template <VertexId V>
struct Matching {
  /// mate[v] is v's partner, or kNoVertex<V> when unmatched.
  std::vector<V> mate;
  std::int64_t num_pairs = 0;
  int sweeps = 0;  // parallel passes used (diagnostic)
};

/// The total order on match offers: higher score wins; ties broken by the
/// vertex indices (paper Sec. IV-B).  Antisymmetric and identical from
/// both endpoints' viewpoints, which is what makes the claim arbitration
/// race-free in outcome.
///
/// The index tie-break goes through a hash of the endpoint pair rather
/// than raw (lo, hi) order: on graphs with many equal scores (e.g. any
/// unweighted regular region at the first level), lexicographic ties
/// chain deferrals so that only one pair can match per sweep — O(|V|)
/// sweeps on a path.  Hashing keeps the order deterministic and total
/// while making tie winners locally independent, restoring the expected
/// O(log |V|) sweep count.  Raw indices remain the final tie-break, so
/// the order is total even across hash collisions.
template <VertexId V>
struct Offer {
  Score score = 0.0;
  std::uint64_t tie = 0;
  V lo = kNoVertex<V>;
  V hi = kNoVertex<V>;

  [[nodiscard]] bool valid() const noexcept { return lo != kNoVertex<V>; }

  [[nodiscard]] bool beats(const Offer& other) const noexcept {
    if (!other.valid()) return valid();
    if (!valid()) return false;
    if (score != other.score) return score > other.score;
    if (tie != other.tie) return tie < other.tie;
    if (lo != other.lo) return lo < other.lo;
    return hi < other.hi;
  }
};

template <VertexId V>
[[nodiscard]] Offer<V> make_offer(Score s, V a, V b) noexcept {
  const V lo = a < b ? a : b;
  const V hi = a < b ? b : a;
  const auto key = (static_cast<std::uint64_t>(lo) << 32) ^ static_cast<std::uint64_t>(hi) ^
                   (static_cast<std::uint64_t>(hi) >> 32 << 17);
  return Offer<V>{s, mix64(key), lo, hi};
}

/// Checks structural validity: symmetric, irreflexive, in range.
template <VertexId V>
[[nodiscard]] bool is_valid_matching(const Matching<V>& m) {
  const auto nv = static_cast<std::int64_t>(m.mate.size());
  std::int64_t matched = 0;
  for (std::int64_t v = 0; v < nv; ++v) {
    const V p = m.mate[static_cast<std::size_t>(v)];
    if (p == kNoVertex<V>) continue;
    if (p < 0 || static_cast<std::int64_t>(p) >= nv) return false;
    if (p == static_cast<V>(v)) return false;
    if (m.mate[static_cast<std::size_t>(p)] != static_cast<V>(v)) return false;
    ++matched;
  }
  return matched == 2 * m.num_pairs;
}

/// Maximality over positive scores: no edge with score > 0 joins two
/// unmatched vertices.
template <VertexId V>
[[nodiscard]] bool is_maximal_matching(const CommunityGraph<V>& g,
                                       std::span<const Score> scores,
                                       const Matching<V>& m) {
  const EdgeId ne = g.num_edges();
  for (EdgeId e = 0; e < ne; ++e) {
    const auto i = static_cast<std::size_t>(e);
    if (scores[i] <= 0.0) continue;
    if (m.mate[static_cast<std::size_t>(g.efirst[i])] == kNoVertex<V> &&
        m.mate[static_cast<std::size_t>(g.esecond[i])] == kNoVertex<V>)
      return false;
  }
  return true;
}

/// Total score of the matched edges (each matched pair counted once).
template <VertexId V>
[[nodiscard]] Score matching_weight(const CommunityGraph<V>& g,
                                    std::span<const Score> scores,
                                    const Matching<V>& m) {
  Score total = 0.0;
  const EdgeId ne = g.num_edges();
  for (EdgeId e = 0; e < ne; ++e) {
    const auto i = static_cast<std::size_t>(e);
    if (m.mate[static_cast<std::size_t>(g.efirst[i])] == g.esecond[i]) total += scores[i];
  }
  return total;
}

}  // namespace commdet
