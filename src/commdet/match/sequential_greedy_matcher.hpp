// Sequential greedy matching in descending score order (Preis-style
// 1/2-approximation of the maximum-weight matching).
//
// Deterministic reference implementation: tests compare the parallel
// matchers' weight and maximality against it, and the factor-2 bound is
// checked against a brute-force optimum on small graphs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "commdet/graph/community_graph.hpp"
#include "commdet/match/matching.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

template <VertexId V>
class SequentialGreedyMatcher {
 public:
  [[nodiscard]] Matching<V> match(const CommunityGraph<V>& g,
                                  std::span<const Score> scores) const {
    const EdgeId ne = g.num_edges();
    Matching<V> result;
    result.mate.assign(static_cast<std::size_t>(g.nv), kNoVertex<V>);
    result.sweeps = 1;

    std::vector<EdgeId> order;
    order.reserve(static_cast<std::size_t>(ne));
    for (EdgeId e = 0; e < ne; ++e)
      if (scores[static_cast<std::size_t>(e)] > 0.0) order.push_back(e);

    std::sort(order.begin(), order.end(), [&](EdgeId x, EdgeId y) {
      const auto ox = make_offer(scores[static_cast<std::size_t>(x)], g.efirst[static_cast<std::size_t>(x)],
                                 g.esecond[static_cast<std::size_t>(x)]);
      const auto oy = make_offer(scores[static_cast<std::size_t>(y)], g.efirst[static_cast<std::size_t>(y)],
                                 g.esecond[static_cast<std::size_t>(y)]);
      return ox.beats(oy);
    });

    for (const EdgeId e : order) {
      const auto i = static_cast<std::size_t>(e);
      const V a = g.efirst[i];
      const V b = g.esecond[i];
      if (result.mate[static_cast<std::size_t>(a)] == kNoVertex<V> &&
          result.mate[static_cast<std::size_t>(b)] == kNoVertex<V>) {
        result.mate[static_cast<std::size_t>(a)] = b;
        result.mate[static_cast<std::size_t>(b)] = a;
        ++result.num_pairs;
      }
    }
    return result;
  }
};

}  // namespace commdet
