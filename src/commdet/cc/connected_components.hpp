// Parallel connected components over raw edge lists.
//
// The R-MAT pipeline extracts the largest connected component before
// community detection (Sec. V-B).  Lock-free union-find: edges hook the
// larger root under the smaller via CAS, finds use path halving.  The
// result is schedule-independent (component labels are the minimum vertex
// id in each component).
//
// largest_component sizes the components from chunk-private counts and
// copies the giant component's edges with an order-preserving
// compaction, so neither step takes a shared atomic per vertex or per
// edge (the giant component's root would otherwise serialize them), and
// its output, vertex ids and edge order both, is the same at any thread
// count: the input's edges filtered in order.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "commdet/graph/edge_list.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/util/compact.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/prefix_sum.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

namespace detail {

template <VertexId V>
V uf_find(std::vector<V>& parent, V x) noexcept {
  // Path halving with atomic reads; concurrent updates only ever move
  // parents closer to the root, so stale reads are safe.
  V p = std::atomic_ref<V>(parent[static_cast<std::size_t>(x)]).load(std::memory_order_relaxed);
  while (p != x) {
    const V gp = std::atomic_ref<V>(parent[static_cast<std::size_t>(p)]).load(std::memory_order_relaxed);
    if (gp == p) return p;
    std::atomic_ref<V>(parent[static_cast<std::size_t>(x)])
        .compare_exchange_weak(p, gp, std::memory_order_relaxed);
    x = gp;
    p = std::atomic_ref<V>(parent[static_cast<std::size_t>(x)]).load(std::memory_order_relaxed);
  }
  return x;
}

template <VertexId V>
void uf_union(std::vector<V>& parent, V a, V b) noexcept {
  for (;;) {
    V ra = uf_find(parent, a);
    V rb = uf_find(parent, b);
    if (ra == rb) return;
    if (ra > rb) std::swap(ra, rb);  // hook larger root under smaller
    V expected = rb;
    if (std::atomic_ref<V>(parent[static_cast<std::size_t>(rb)])
            .compare_exchange_strong(expected, ra, std::memory_order_acq_rel))
      return;
  }
}

}  // namespace detail

/// Component label per vertex: the minimum vertex id in its component.
template <VertexId V>
[[nodiscard]] std::vector<V> connected_components(const EdgeList<V>& g) {
  const auto nv = static_cast<std::int64_t>(g.num_vertices);
  std::vector<V> parent(static_cast<std::size_t>(nv));
  parallel_for(nv, [&](std::int64_t v) { parent[static_cast<std::size_t>(v)] = static_cast<V>(v); });

  parallel_for(g.num_edges(), [&](std::int64_t e) {
    const auto& edge = g.edges[static_cast<std::size_t>(e)];
    if (edge.u != edge.v) detail::uf_union(parent, edge.u, edge.v);
  });

  // Flatten so every vertex points at its root; other finds still read.
  parallel_for(nv, [&](std::int64_t v) {
    std::atomic_ref<V>(parent[static_cast<std::size_t>(v)])
        .store(detail::uf_find(parent, static_cast<V>(v)), std::memory_order_relaxed);
  });
  return parent;
}

/// Number of distinct components given labels from connected_components.
template <VertexId V>
[[nodiscard]] std::int64_t count_components(const std::vector<V>& labels) {
  return parallel_count(static_cast<std::int64_t>(labels.size()), [&](std::int64_t v) {
    return labels[static_cast<std::size_t>(v)] == static_cast<V>(v);
  });
}

/// Extracts the largest connected component (the smallest root on a
/// tie) and densely relabels its vertices (order-preserving).  The edges
/// keep their input order.  Self-loops inside the component survive.
template <VertexId V>
[[nodiscard]] EdgeList<V> largest_component(const EdgeList<V>& g) {
  const auto nv = static_cast<std::int64_t>(g.num_vertices);
  if (nv == 0) return g;
  obs::ScopedSpan uf_span("cc.union_find");
  uf_span.attr("edges", g.num_edges());
  const auto labels = connected_components(g);
  uf_span.close();

  obs::ScopedSpan extract_span("cc.extract");
  // Component sizes: chunks of at least 4096 vertices count into their
  // own arrays, never atomics (the giant component's root is one slot).
  std::vector<V> size(static_cast<std::size_t>(nv), 0);
  const auto count = [&](std::int64_t begin, std::int64_t end, const auto& acc) {
    for (std::int64_t v = begin; v < end; ++v)
      ++acc[0][static_cast<std::size_t>(labels[static_cast<std::size_t>(v)])];
  };
  parallel_chunk_add(nv, std::clamp<std::int64_t>(nv / 4096, 1, parallel_threads()),
                     std::array{std::span<V>(size)}, count);
  const auto root = static_cast<V>(std::max_element(size.begin(), size.end()) - size.begin());
  size = {};

  // Dense new ids for members, in vertex order.
  std::vector<V> new_id(static_cast<std::size_t>(nv));
  parallel_for(nv, [&](std::int64_t v) {
    new_id[static_cast<std::size_t>(v)] = labels[static_cast<std::size_t>(v)] == root ? 1 : 0;
  });
  EdgeList<V> out;
  out.num_vertices = exclusive_prefix_sum(std::span<V>(new_id));
  out.edges = parallel_compact(
      std::span<const RawEdge<V>>(g.edges),
      [&](const RawEdge<V>& e) { return labels[static_cast<std::size_t>(e.u)] == root; },
      [&](const RawEdge<V>& e) {
        return RawEdge<V>{new_id[static_cast<std::size_t>(e.u)],
                          new_id[static_cast<std::size_t>(e.v)], e.w};
      });
  extract_span.attr("edges", out.num_edges());
  return out;
}

}  // namespace commdet
