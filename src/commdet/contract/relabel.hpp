// Shared first half of graph contraction: dense relabeling of matched
// pairs and aggregation of per-vertex state (self weights, volumes).
//
// A matched pair (u, mate[u]) becomes one new community led by min(u,
// mate[u]); unmatched vertices survive as singletons.  New ids are dense
// in old-leader order (prefix sum over leader flags).  Volume is additive
// under merges, so the new volume array is a scatter-add.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "commdet/graph/community_graph.hpp"
#include "commdet/match/matching.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/prefix_sum.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

template <VertexId V>
struct MatchingLabels {
  V num_labels = 0;
  std::vector<V> label;  // old vertex -> new vertex
};

/// Dense labels of a matching: leaders are min(u, mate[u]) (unmatched
/// vertices lead themselves) and new ids are dense in leader order.
/// Every matching contractor, sharded or not, relabels through here.
template <VertexId V>
[[nodiscard]] MatchingLabels<V> matching_labels(const Matching<V>& m) {
  const auto nv = static_cast<std::int64_t>(m.mate.size());
  const auto leader = [&](std::int64_t v) {
    const V p = m.mate[static_cast<std::size_t>(v)];
    return (p == kNoVertex<V> || p > static_cast<V>(v)) ? v : static_cast<std::int64_t>(p);
  };

  std::vector<std::int64_t> new_id(static_cast<std::size_t>(nv), 0);
  parallel_for(nv, [&](std::int64_t v) {
    new_id[static_cast<std::size_t>(v)] = leader(v) == v ? 1 : 0;
  });
  const std::int64_t num = exclusive_prefix_sum(std::span<std::int64_t>(new_id));

  MatchingLabels<V> out;
  out.num_labels = static_cast<V>(num);
  out.label.assign(static_cast<std::size_t>(nv), kNoVertex<V>);
  parallel_for(nv, [&](std::int64_t v) {
    out.label[static_cast<std::size_t>(v)] =
        static_cast<V>(new_id[static_cast<std::size_t>(leader(v))]);
  });
  return out;
}

/// Folds per-vertex state into labels: state is additive under
/// contraction, so each vertex's volume adds into its label's and its
/// self-loop weight into the label's self weight.  `self` and `volume`
/// are num_labels long and are added to (relabel convention: volumes are
/// final, self weights still lack the intra-label edges the contractor's
/// edge pass folds in).  A matching's labels (at least nv / 2 of them)
/// are added in place.  Fewer labels than nv / threads — a clustering's —
/// would serialize the threads on a few hot slots, so those fold into
/// chunk-private arrays first.  Weights are integers: both give the same
/// sums.
template <VertexState G, VertexId V>
void fold_vertex_state(const G& g, std::span<const V> labels, std::span<Weight> self,
                       std::span<Weight> volume) {
  const auto nv = static_cast<std::int64_t>(g.nv);
  const auto n = static_cast<std::int64_t>(volume.size());
  const std::int64_t nchunks = parallel_threads();
  if (nchunks == 1 || n * nchunks >= nv) {
    parallel_for(nv, [&](std::int64_t v) {
      const auto vi = static_cast<std::size_t>(v);
      const auto c = static_cast<std::size_t>(labels[vi]);
      std::atomic_ref<Weight>(volume[c]).fetch_add(g.volume[vi], std::memory_order_relaxed);
      if (g.self_weight[vi] > 0)
        std::atomic_ref<Weight>(self[c]).fetch_add(g.self_weight[vi], std::memory_order_relaxed);
    });
    return;
  }
  const auto fold = [&](std::int64_t begin, std::int64_t end, const auto& acc) {
    for (auto vi = static_cast<std::size_t>(begin); vi < static_cast<std::size_t>(end); ++vi) {
      const auto l = static_cast<std::size_t>(labels[vi]);
      acc[0][l] += g.self_weight[vi];
      acc[1][l] += g.volume[vi];
    }
  };
  parallel_chunk_add(nv, nchunks, std::array{self, volume}, fold);
}

template <VertexId V>
struct RelabelResult {
  V new_nv = 0;
  std::vector<V> new_label;        // old vertex -> new vertex
  std::vector<Weight> self_weight; // aggregated, pre-edge-pass (matched
                                   // edge weights are folded in by the
                                   // contractor's edge pass)
  std::vector<Weight> volume;      // aggregated, final
};

template <VertexId V>
[[nodiscard]] RelabelResult<V> relabel_matched(const CommunityGraph<V>& g,
                                               const Matching<V>& m) {
  auto labels = matching_labels(m);

  RelabelResult<V> out;
  out.new_nv = labels.num_labels;
  out.new_label = std::move(labels.label);
  out.self_weight.assign(static_cast<std::size_t>(out.new_nv), 0);
  out.volume.assign(static_cast<std::size_t>(out.new_nv), 0);
  fold_vertex_state(g, std::span<const V>(out.new_label), std::span<Weight>(out.self_weight),
                    std::span<Weight>(out.volume));
  return out;
}

}  // namespace commdet
