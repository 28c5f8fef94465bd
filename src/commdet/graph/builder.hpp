// Builds a CommunityGraph from a raw edge list, and applies normalized
// delta batches to an already-built graph.
//
// Building is a contraction under the identity labeling (paper
// Sec. IV-A is Sec. IV-C applied once): the raw list is one edge range
// that still holds self-loops and multi-edges, so the contraction
// kernel's range passes (contract/label_contractor.hpp) build it.  One
// validation pass, then count_label_range folds the self-loops and
// counts each edge toward its hashed-first bucket with chunk-private
// counters, scatter_label_range places the edges straight into the
// graph's (second, weight) arrays, and sort_and_accumulate_buckets and
// copy_out_buckets accumulate the buckets and close their gaps in place.
// No pass takes a per-edge atomic, and the arrays do not depend on the
// input's edge order or the thread count.
//
// apply_delta() is the incremental path: instead of re-running the full
// build for a small batch of mutations, it classifies each delta
// against its bucket by binary search and merges old bucket and deltas
// in one parallel O(E + D log D) pass, preserving every builder
// invariant (contiguous buckets in vertex order, sorted by second
// endpoint, hashed placement, incremental volumes).  The merge pass
// takes one edge range (detail::merge_delta_range): apply_delta runs it
// once over [0, nv) into a new graph, and the sharded apply_delta
// (shard/sharded_graph.hpp) once per block, in place.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "commdet/contract/label_contractor.hpp"
#include "commdet/graph/community_graph.hpp"
#include "commdet/graph/delta.hpp"
#include "commdet/graph/edge_list.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/util/compact.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/prefix_sum.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

/// The pass spans of a graph build.
inline constexpr BucketPassSpans kBuildSpans{"graph.build.count", "graph.build.scatter",
                                             "graph.build.sort", "graph.build.copy"};

namespace detail {

/// A raw edge list read in place as an EdgeRange: efirst[i], esecond[i]
/// and eweight[i] are edges[i].u, .v and .w.
template <VertexId V>
struct RawEdgeRange {
  template <auto Field>
  struct Column {
    const RawEdge<V>* edges;
    [[nodiscard]] auto operator[](std::size_t i) const noexcept { return edges[i].*Field; }
  };
  Column<&RawEdge<V>::u> efirst;
  Column<&RawEdge<V>::v> esecond;
  Column<&RawEdge<V>::w> eweight;
  EdgeId ne;

  explicit RawEdgeRange(const EdgeList<V>& list) noexcept
      : efirst{list.edges.data()}, esecond{list.edges.data()}, eweight{list.edges.data()},
        ne{list.num_edges()} {}
  [[nodiscard]] EdgeId num_edges() const noexcept { return ne; }
};

}  // namespace detail

/// Builds the bucketed community graph.  Throws std::invalid_argument on
/// an out-of-range endpoint or, failing that, a non-positive weight.
template <VertexId V>
[[nodiscard]] CommunityGraph<V> build_community_graph(const EdgeList<V>& input) {
  const V nv = input.num_vertices;
  obs::ScopedSpan span("graph.build");
  span.attr("edges", input.num_edges());
  // A max-reduction: a bad endpoint (2) outranks a bad weight (1)
  // wherever each lies.
  const int bad = parallel_max(input.num_edges(), 0, [&](std::int64_t i) {
    const auto& e = input.edges[static_cast<std::size_t>(i)];
    if (e.u < 0 || e.u >= nv || e.v < 0 || e.v >= nv) return 2;
    return e.w <= 0 ? 1 : 0;
  });
  if (bad == 2) throw std::invalid_argument("edge endpoint out of range");
  if (bad == 1) throw std::invalid_argument("edge weight must be positive");

  CommunityGraph<V> g;
  g.nv = nv;
  g.self_weight.assign(static_cast<std::size_t>(nv), 0);
  (void)detail::bucket_sort_range(detail::RawEdgeRange<V>(input), IdentityLabels<V>{}, V{0},
                                  nv, std::span<Weight>(g.self_weight), g, kBuildSpans);
  g.recompute_volumes();
  g.total_weight = g.compute_total_weight();
  span.attr("fresh_bytes", grown_bytes({}, g.capacity_bytes()));
  return g;
}

/// What a delta application did, by category.  "Effective" changes are
/// the ones that altered the graph; a delete of a missing edge or a
/// reweight to the current weight is counted but changes nothing.
struct DeltaApplyReport {
  std::int64_t applied = 0;          // normalized deltas processed
  std::int64_t inserted = 0;         // new edges created by kInsert
  std::int64_t strengthened = 0;     // kInsert onto an existing edge
  std::int64_t deleted = 0;          // edges removed
  std::int64_t missing_deletes = 0;  // kDelete of an absent edge (no-op)
  std::int64_t reweighted = 0;       // kReweight of an existing edge
  std::int64_t upserts = 0;          // kReweight creating an absent edge
  std::int64_t self_loop_updates = 0;
  std::int64_t effective = 0;        // deltas that changed the graph
};

/// Result of apply_delta: the updated graph (the input graph is not
/// modified — application is transactional, callers commit by swapping),
/// the category counts, and the sorted unique vertices incident to an
/// effective change (the seed set for incremental re-agglomeration).
template <VertexId V>
struct DeltaApplied {
  CommunityGraph<V> graph;
  DeltaApplyReport report;
  std::vector<V> touched;
};

namespace detail {

/// Validation pass: throws std::invalid_argument on an out-of-range
/// endpoint or a non-positive insert/reweight weight.
template <VertexId V>
void validate_deltas(std::span<const EdgeDelta<V>> deltas, V nv) {
  const auto nd = static_cast<std::int64_t>(deltas.size());
  // A max-reduction: a bad endpoint (2) outranks a bad weight (1).
  const int bad = parallel_max(nd, 0, [&](std::int64_t i) {
    const auto& d = deltas[static_cast<std::size_t>(i)];
    if (d.u < 0 || d.u >= nv || d.v < 0 || d.v >= nv) return 2;
    return d.op != DeltaOp::kDelete && d.w <= 0 ? 1 : 0;
  });
  if (bad == 2) throw std::invalid_argument("delta endpoint out of range");
  if (bad == 1) throw std::invalid_argument("delta weight must be positive");
#ifndef NDEBUG
  // Normalization contract: strictly sorted by (first, second).
  for (std::int64_t i = 1; i < nd; ++i) {
    const auto& a = deltas[static_cast<std::size_t>(i - 1)];
    const auto& b = deltas[static_cast<std::size_t>(i)];
    assert((a.u < b.u || (a.u == b.u && a.v < b.v)) && "deltas not normalized");
  }
#endif
}

/// Applies the self-loop deltas to the per-vertex state of `state` (a
/// CommunityGraph or a ShardedGraph) and returns the edge deltas, still
/// sorted.  Counts `applied` and the self-loop categories into `report`.
template <VertexState G, VertexId V>
[[nodiscard]] std::vector<EdgeDelta<V>> apply_self_loop_deltas(
    G& state, std::span<const EdgeDelta<V>> deltas, std::span<std::uint8_t> touched,
    DeltaApplyReport& report) {
  report.applied = static_cast<std::int64_t>(deltas.size());
  const auto self_deltas = parallel_compact(
      deltas, [](const EdgeDelta<V>& d) { return d.u == d.v; });
  for (const auto& d : self_deltas) {
    const auto vi = static_cast<std::size_t>(d.u);
    const Weight old = state.self_weight[vi];
    Weight neww = old;
    switch (d.op) {
      case DeltaOp::kInsert: neww = old + d.w; break;
      case DeltaOp::kDelete: neww = 0; break;
      case DeltaOp::kReweight: neww = d.w; break;
    }
    if (d.op == DeltaOp::kDelete && old == 0) ++report.missing_deletes;
    ++report.self_loop_updates;
    const Weight dw = neww - old;
    if (dw == 0) continue;
    state.self_weight[vi] = neww;
    state.volume[vi] += 2 * dw;
    state.total_weight += dw;
    touched[vi] = 1;
    ++report.effective;
  }
  // Order-preserving split keeps the edge deltas sorted.
  return parallel_compact(deltas, [](const EdgeDelta<V>& d) { return d.u != d.v; });
}

/// The merge pass over one edge range: `in` holds the sorted buckets of
/// vertices [lo, hi) (cursors indexed v - lo, so a CommunityGraph is the
/// lo = 0 case), `deltas` the sorted edge deltas whose first endpoint
/// lies in [lo, hi).  Classifies each delta against its bucket by binary
/// search, merges every bucket with its delta run into `out`'s
/// bucket_begin / bucket_end / efirst / esecond / eweight, and keeps
/// `state`'s volumes and total weight, `touched` and `report` up to
/// date.  Returns the number of edges written.
template <typename In, typename Out, VertexState G, VertexId V>
EdgeId merge_delta_range(const In& in, V lo, V hi, std::span<const EdgeDelta<V>> deltas,
                         Out& out, G& state, std::span<std::uint8_t> touched,
                         DeltaApplyReport& report) {
  const auto nb = static_cast<std::int64_t>(hi - lo);
  const auto nbs = static_cast<std::size_t>(nb);
  const auto nd = static_cast<std::int64_t>(deltas.size());
  const auto nds = static_cast<std::size_t>(nd);
#ifndef NDEBUG
  // Binary-search classification needs each bucket sorted by second
  // endpoint.
  parallel_for(nb, [&](std::int64_t v) {
    const auto [b, e] = in.bucket(static_cast<V>(lo + v));
    assert(std::is_sorted(in.esecond.begin() + b, in.esecond.begin() + e) &&
           "bucket not sorted by second endpoint");
  });
#endif

  // Kinds: 0 = in-place weight change, 1 = create, 2 = remove, 3 = no-op.
  std::vector<std::uint8_t> kind(nds, 3);
  std::vector<Weight> result_w(nds, 0);
  std::vector<Weight> weight_dw(nds, 0);
  parallel_for(nd, [&](std::int64_t i) {
    const auto& d = deltas[static_cast<std::size_t>(i)];
    const auto [b, e] = in.bucket(d.u);
    const auto* blo = in.esecond.data() + b;
    const auto* bhi = in.esecond.data() + e;
    const auto* it = std::lower_bound(blo, bhi, d.v);
    const bool found = it != bhi && *it == d.v;
    const auto idx = static_cast<std::size_t>(b + (it - blo));
    const auto ii = static_cast<std::size_t>(i);
    switch (d.op) {
      case DeltaOp::kInsert:
        kind[ii] = found ? 0 : 1;
        result_w[ii] = found ? in.eweight[idx] + d.w : d.w;
        weight_dw[ii] = d.w;
        break;
      case DeltaOp::kDelete:
        kind[ii] = found ? 2 : 3;
        weight_dw[ii] = found ? -in.eweight[idx] : 0;
        break;
      case DeltaOp::kReweight:
        if (found && in.eweight[idx] == d.w) {
          kind[ii] = 3;  // reweight to the current weight: nothing to do
        } else {
          kind[ii] = found ? 0 : 1;
          result_w[ii] = d.w;
          weight_dw[ii] = found ? d.w - in.eweight[idx] : d.w;
        }
        break;
    }
  });

  const auto count_kind = [&](DeltaOp op, std::uint8_t k) {
    return parallel_count(nd, [&](std::int64_t i) {
      return deltas[static_cast<std::size_t>(i)].op == op &&
             kind[static_cast<std::size_t>(i)] == k;
    });
  };
  report.inserted += count_kind(DeltaOp::kInsert, 1);
  report.strengthened += count_kind(DeltaOp::kInsert, 0);
  report.deleted += count_kind(DeltaOp::kDelete, 2);
  report.missing_deletes += count_kind(DeltaOp::kDelete, 3);
  report.reweighted += count_kind(DeltaOp::kReweight, 0);
  report.upserts += count_kind(DeltaOp::kReweight, 1);
  report.effective += parallel_count(nd, [&](std::int64_t i) {
    return kind[static_cast<std::size_t>(i)] != 3;
  });

  // New bucket sizes -> cursors, then one merge pass per bucket.
  std::vector<EdgeId> grow(nbs, 0);
  std::vector<EdgeId> shrink(nbs, 0);
  parallel_for(nd, [&](std::int64_t i) {
    const auto ii = static_cast<std::size_t>(i);
    const auto f = static_cast<std::size_t>(deltas[ii].u - lo);
    if (kind[ii] == 1)
      std::atomic_ref<EdgeId>(grow[f]).fetch_add(1, std::memory_order_relaxed);
    else if (kind[ii] == 2)
      std::atomic_ref<EdgeId>(shrink[f]).fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<EdgeId> cursors(nbs + 1, 0);
  parallel_for(nb, [&](std::int64_t v) {
    const auto vi = static_cast<std::size_t>(v);
    const auto [b, e] = in.bucket(static_cast<V>(lo + v));
    cursors[vi] = e - b + grow[vi] - shrink[vi];
  });
  const EdgeId ne_new = exclusive_prefix_sum(std::span<EdgeId>(cursors));
  out.bucket_begin.assign(cursors.begin(), cursors.end() - 1);
  out.bucket_end.assign(nbs, 0);
  parallel_for(nb, [&](std::int64_t v) {
    out.bucket_end[static_cast<std::size_t>(v)] = cursors[static_cast<std::size_t>(v) + 1];
  });
  out.efirst.assign(static_cast<std::size_t>(ne_new), V{});
  out.esecond.assign(static_cast<std::size_t>(ne_new), V{});
  out.eweight.assign(static_cast<std::size_t>(ne_new), 0);

  // Per-bucket merge of the old sorted bucket with its delta run (both
  // sorted by second endpoint).  Buckets without deltas are plain copies.
  const auto cmp_first = [](const EdgeDelta<V>& d, V f) { return d.u < f; };
  parallel_for_dynamic(nb, [&](std::int64_t v) {
    const auto vv = static_cast<V>(lo + v);
    const auto vi = static_cast<std::size_t>(v);
    auto [oi, oe] = in.bucket(vv);
    const auto* dlo = std::lower_bound(deltas.data(), deltas.data() + nd, vv, cmp_first);
    const auto* dhi =
        std::lower_bound(dlo, deltas.data() + nd, static_cast<V>(vv + 1), cmp_first);
    EdgeId w = out.bucket_begin[vi];
    const auto emit = [&](V second, Weight weight) {
      const auto wi = static_cast<std::size_t>(w++);
      out.efirst[wi] = vv;
      out.esecond[wi] = second;
      out.eweight[wi] = weight;
    };
    auto di = dlo;
    const auto delta_index = [&](const EdgeDelta<V>* d) {
      return static_cast<std::size_t>(d - deltas.data());
    };
    while (di != dhi && kind[delta_index(di)] == 3) ++di;
    while (oi < oe || di != dhi) {
      if (di == dhi) {  // drain old edges
        emit(in.esecond[static_cast<std::size_t>(oi)], in.eweight[static_cast<std::size_t>(oi)]);
        ++oi;
        continue;
      }
      const auto ki = delta_index(di);
      if (oi == oe || di->v < in.esecond[static_cast<std::size_t>(oi)]) {
        assert(kind[ki] == 1 && "create delta matched an existing edge");
        emit(di->v, result_w[ki]);
      } else if (di->v == in.esecond[static_cast<std::size_t>(oi)]) {
        if (kind[ki] == 0) emit(di->v, result_w[ki]);  // kind 2 drops the edge
        ++oi;
      } else {
        emit(in.esecond[static_cast<std::size_t>(oi)], in.eweight[static_cast<std::size_t>(oi)]);
        ++oi;
        continue;  // delta not consumed yet
      }
      ++di;
      while (di != dhi && kind[delta_index(di)] == 3) ++di;
    }
    assert(w == out.bucket_end[vi] && "merged bucket size mismatch");
  });

  // Incremental volume / total-weight maintenance from effective deltas
  // (a remote endpoint's volume is in the shared per-vertex array).
  parallel_for(nd, [&](std::int64_t i) {
    const auto ii = static_cast<std::size_t>(i);
    const Weight dw = weight_dw[ii];
    if (dw == 0) return;
    const auto& d = deltas[ii];
    std::atomic_ref<Weight>(state.volume[static_cast<std::size_t>(d.u)])
        .fetch_add(dw, std::memory_order_relaxed);
    std::atomic_ref<Weight>(state.volume[static_cast<std::size_t>(d.v)])
        .fetch_add(dw, std::memory_order_relaxed);
    std::atomic_ref<std::uint8_t>(touched[static_cast<std::size_t>(d.u)])
        .store(1, std::memory_order_relaxed);
    std::atomic_ref<std::uint8_t>(touched[static_cast<std::size_t>(d.v)])
        .store(1, std::memory_order_relaxed);
  });
  state.total_weight += parallel_sum<Weight>(nd, [&](std::int64_t i) {
    return weight_dw[static_cast<std::size_t>(i)];
  });
  return ne_new;
}

/// The sorted vertices whose `touched` flag is set.
template <VertexId V>
[[nodiscard]] std::vector<V> touched_vertices(std::span<const std::uint8_t> touched) {
  std::vector<V> ids(touched.size());
  parallel_for(static_cast<std::int64_t>(ids.size()), [&](std::int64_t v) {
    ids[static_cast<std::size_t>(v)] = static_cast<V>(v);
  });
  return parallel_compact(std::span<const V>(ids), [&](V v) {
    return touched[static_cast<std::size_t>(v)] != 0;
  });
}

}  // namespace detail

/// Applies a *normalized* delta span (see normalize_deltas: hashed
/// endpoint order, sorted by (first, second), one op per edge) to `g`,
/// returning the updated graph: validation, the self-loop deltas, then
/// one merge pass over the graph's one edge range [0, nv).  Throws
/// std::invalid_argument on out-of-range endpoints or non-positive
/// insert/reweight weights — sanitize first (robust/sanitize.hpp) when
/// the batch is untrusted.  Requires each bucket of `g` sorted by second
/// endpoint, which build_community_graph guarantees and this function
/// preserves.
template <VertexId V>
[[nodiscard]] DeltaApplied<V> apply_delta(const CommunityGraph<V>& g,
                                          std::span<const EdgeDelta<V>> deltas) {
  detail::validate_deltas(deltas, g.nv);
  DeltaApplied<V> out;
  out.graph.nv = g.nv;
  out.graph.self_weight = g.self_weight;
  out.graph.volume = g.volume;
  out.graph.total_weight = g.total_weight;
  std::vector<std::uint8_t> touched(static_cast<std::size_t>(g.nv), 0);
  const auto edge_deltas = detail::apply_self_loop_deltas(
      out.graph, deltas, std::span<std::uint8_t>(touched), out.report);
  (void)detail::merge_delta_range(g, V{0}, g.nv, std::span<const EdgeDelta<V>>(edge_deltas),
                                  out.graph, out.graph, std::span<std::uint8_t>(touched),
                                  out.report);
  out.touched = detail::touched_vertices<V>(touched);
  return out;
}

/// Convenience overload for a raw (un-normalized) batch.
template <VertexId V>
[[nodiscard]] DeltaApplied<V> apply_delta(const CommunityGraph<V>& g,
                                          const DeltaBatch<V>& batch) {
  const auto normalized = normalize_deltas(batch);
  return apply_delta(g, std::span<const EdgeDelta<V>>(normalized));
}

}  // namespace commdet
