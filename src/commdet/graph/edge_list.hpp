// Raw edge lists: the exchange format between generators, file readers,
// and the community-graph builder.  May contain self-loops and repeated
// edges; the builder accumulates them (paper Sec. IV-A).
#pragma once

#include <cstdint>

#include "commdet/util/big_array.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

/// One weighted edge as read/generated; u == v marks a self-loop.
template <VertexId V>
struct RawEdge {
  V u;
  V v;
  Weight w;

  friend bool operator==(const RawEdge&, const RawEdge&) = default;
};

/// A loose collection of edges over vertices [0, num_vertices).
template <VertexId V>
struct EdgeList {
  V num_vertices = 0;
  BigVector<RawEdge<V>> edges;

  [[nodiscard]] std::int64_t num_edges() const noexcept {
    return static_cast<std::int64_t>(edges.size());
  }

  void add(V u, V v, Weight w = 1) { edges.push_back({u, v, w}); }
};

}  // namespace commdet
