// The community-graph data structure (paper Sec. IV-A).
//
// A weighted undirected graph stored as an array of edge triples
// (i, j, w), each edge stored exactly once in the bucket of its *hashed
// first* vertex: if i and j have the same parity the edge is stored with
// i < j, otherwise with i > j.  This scatters the adjacency of high-degree
// vertices across many buckets, which is what makes the later matching and
// contraction passes balance well on power-law graphs.
//
// Self-loop weights (input edges collapsed inside a community) live in a
// |V|-long array.  Buckets carry explicit begin/end cursors into the edge
// array and are not required to be contiguous or ordered by vertex.
//
// In addition to the paper's 3|V| + 3|E| words we keep a |V|-long
// `volume` array (2*self + incident cut weight).  Volume is additive under
// community merges, and edge scoring needs exactly (w_ij, vol_i, vol_j),
// so maintaining it incrementally avoids a full recomputation pass per
// contraction level.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "commdet/util/big_array.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

/// Hashed storage order for an undirected edge {i, j}: same parity stores
/// (min, max), mixed parity stores (max, min).  The first element names
/// the owning bucket.
template <VertexId V>
[[nodiscard]] constexpr std::pair<V, V> hashed_edge_order(V i, V j) noexcept {
  const V lo = i < j ? i : j;
  const V hi = i < j ? j : i;
  const bool same_parity = ((i ^ j) & V{1}) == 0;
  return same_parity ? std::pair<V, V>{lo, hi} : std::pair<V, V>{hi, lo};
}

template <VertexId V>
struct CommunityGraph {
  /// Number of vertices (communities).
  V nv = 0;

  /// Bucket cursors: edges owned by vertex v occupy
  /// [bucket_begin[v], bucket_end[v]) in the edge arrays.
  std::vector<EdgeId> bucket_begin;
  std::vector<EdgeId> bucket_end;

  /// Sum of edge weights collapsed inside each community (self-loops).
  std::vector<Weight> self_weight;

  /// Weighted degree of each community: 2*self_weight[v] + total weight of
  /// edges incident to v.  Additive under merges.
  std::vector<Weight> volume;

  /// Edge triples, structure-of-arrays.  efirst[e] is the owning bucket's
  /// vertex; (efirst[e], esecond[e]) is in hashed order; efirst != esecond.
  BigVector<V> efirst;
  BigVector<V> esecond;
  BigVector<Weight> eweight;

  /// Total graph weight W = sum of all edge weights + all self weights.
  /// Invariant across contraction levels.
  Weight total_weight = 0;

  [[nodiscard]] V num_vertices() const noexcept { return nv; }
  [[nodiscard]] EdgeId num_edges() const noexcept {
    return static_cast<EdgeId>(efirst.size());
  }

  /// Edge-array index range of vertex v's bucket.
  [[nodiscard]] std::pair<EdgeId, EdgeId> bucket(V v) const noexcept {
    const auto i = static_cast<std::size_t>(v);
    return {bucket_begin[i], bucket_end[i]};
  }

  /// Heap footprint of the graph arrays in bytes.  The paper budgets
  /// 3|V| + 3|E| 64-bit words (buckets + self weights, triples); this
  /// implementation adds one |V| word for the incrementally-maintained
  /// volume array, and the vertex-id arrays shrink to 32 bits in the
  /// int32 instantiation.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    const auto nvs = static_cast<std::size_t>(nv);
    const auto nes = efirst.size();
    return nvs * (2 * sizeof(EdgeId) + 2 * sizeof(Weight)) +
           nes * (2 * sizeof(V) + sizeof(Weight));
  }

  /// Heap capacity of each array in bytes, in declaration order: what
  /// the graph holds, and what a contraction that recycles it can fill
  /// without touching fresh pages.
  [[nodiscard]] std::array<std::int64_t, 7> capacity_bytes() const noexcept {
    const auto bytes = [](const auto& v) {
      return static_cast<std::int64_t>(v.capacity() * sizeof(v[0]));
    };
    return {bytes(bucket_begin), bytes(bucket_end), bytes(self_weight), bytes(volume),
            bytes(efirst),       bytes(esecond),    bytes(eweight)};
  }

  /// Recomputes total_weight from the arrays (used by the validator and
  /// after hand-construction in tests).
  [[nodiscard]] Weight compute_total_weight() const {
    const auto sum = [](const auto& w) {
      return parallel_sum<Weight>(static_cast<std::int64_t>(w.size()),
                                  [&](std::int64_t i) { return w[static_cast<std::size_t>(i)]; });
    };
    return sum(eweight) + sum(self_weight);
  }

  /// Recomputes the volume array from the edge arrays (parallel).  Each
  /// chunk of edges adds into its own array, so a hub's volume is not a
  /// contended atomic; at most ne / nv chunks.
  void recompute_volumes() {
    const EdgeId ne = num_edges();
    volume.resize(static_cast<std::size_t>(nv));
    parallel_for(static_cast<std::int64_t>(nv), [&](std::int64_t v) {
      volume[static_cast<std::size_t>(v)] = 2 * self_weight[static_cast<std::size_t>(v)];
    });
    const std::int64_t nchunks = std::clamp<std::int64_t>(
        ne / std::max<std::int64_t>(static_cast<std::int64_t>(nv), 1), 1, parallel_threads());
    const auto add = [&](EdgeId begin, EdgeId end, const auto& acc) {
      for (auto i = static_cast<std::size_t>(begin); i < static_cast<std::size_t>(end); ++i) {
        acc[0][static_cast<std::size_t>(efirst[i])] += eweight[i];
        acc[0][static_cast<std::size_t>(esecond[i])] += eweight[i];
      }
    };
    parallel_chunk_add(ne, nchunks, std::array{std::span<Weight>(volume)}, add);
  }
};

/// An edge range: the efirst / esecond / eweight arrays that a
/// CommunityGraph and each shard block hold.  The score, edge-sweep and
/// label-contraction kernels take one, so the sharded path calls them
/// block by block.
template <typename E>
concept EdgeRange = requires(const E& e) {
  e.num_edges(); e.efirst[0]; e.esecond[0]; e.eweight[0];
};

/// Runs `fn` on the graph's one edge range; the ShardedGraph overload
/// runs it on each shard block in turn.
template <VertexId V, typename Fn>
void for_each_edge_range(const CommunityGraph<V>& g, Fn&& fn) {
  fn(g);
}

/// Per-vertex state: nv, the volume and self-weight arrays, and the total
/// weight (CommunityGraph, ShardedGraph).
template <typename G>
concept VertexState = requires(const G& g) {
  g.nv; g.volume[0]; g.self_weight[0]; g.total_weight;
};

}  // namespace commdet
