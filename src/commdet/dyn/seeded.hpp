// Seeded (warm-start) re-agglomeration for dynamic updates.
//
// After a batch mutates the base graph, most of the old clustering is
// still right: only the vertices incident to changed edges — plus a
// configurable k-hop halo around them — can plausibly want a different
// community (Lu & Halappanavar's perturbation argument).  So instead of
// re-running agglomeration from singletons, we unseat exactly the dirty
// vertices into fresh singleton communities, contract the surviving
// assignment into a warm community graph, and hand that to the standard
// score/match/contract loop (Staudt & Meyerhenke's prolonged coarsening
// in reverse: the survivors pre-pay most of the coarsening work).
//
// Quality metrics are preserved by construction: contraction keeps
// modularity/coverage of a labeling invariant, so the coarse result's
// quality is the composed fine labeling's quality.
//
// The warm-start tail after the warm run — composing the coarse result
// onto the base vertices and the kept-prior quality guard — is shared
// by DynamicCommunities and the sharded ShardedCommunities, for either
// graph type.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "commdet/contract/label_contractor.hpp"
#include "commdet/core/clustering.hpp"
#include "commdet/core/detect.hpp"
#include "commdet/graph/community_graph.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

/// One breadth-first halo step over an edge range: every edge with
/// exactly one dirty endpoint marks the other in `next`.  Reading
/// `dirty` and writing `next` (double-buffering) keeps the radius exact
/// whatever order the edges and ranges are swept in.  Returns the number
/// of such frontier edges.
template <EdgeRange E>
std::int64_t halo_hop(const E& edges, std::span<const std::uint8_t> dirty,
                      std::span<std::uint8_t> next) {
  return parallel_sum<std::int64_t>(static_cast<std::int64_t>(edges.num_edges()),
                                    [&](std::int64_t e) {
    const auto i = static_cast<std::size_t>(e);
    const auto f = static_cast<std::size_t>(edges.efirst[i]);
    const auto s = static_cast<std::size_t>(edges.esecond[i]);
    if (dirty[f] == dirty[s]) return std::int64_t{0};
    // Every writer stores the same 1: relaxed atomic stores suffice.
    std::atomic_ref<std::uint8_t>(next[dirty[f] ? s : f]).store(1, std::memory_order_relaxed);
    return std::int64_t{1};
  });
}

/// Expands `touched` by `hops` breadth-first steps over g's edges and
/// returns the dirty-vertex flags.  Each pass is one parallel sweep over
/// the edge array (the hashed-bucket layout has no per-vertex adjacency
/// to chase, but E-sized sweeps are exactly what the machine likes).
/// `g` is a CommunityGraph or a ShardedGraph; a sharded hop sweeps one
/// leased block at a time, and cut edges carry dirtiness across shard
/// boundaries through the shared flags (in a multi-node port: a
/// ghost-flag exchange per hop).
template <typename G, VertexId V>
[[nodiscard]] std::vector<std::uint8_t> expand_halo(G& g, std::span<const V> touched,
                                                    int hops) {
  std::vector<std::uint8_t> dirty(static_cast<std::size_t>(g.nv), 0);
  for (const V v : touched) dirty[static_cast<std::size_t>(v)] = 1;
  for (int h = 0; h < hops; ++h) {
    std::vector<std::uint8_t> next(dirty);
    for_each_edge_range(g, [&](const auto& edges) {
      (void)halo_hop(edges, std::span<const std::uint8_t>(dirty),
                     std::span<std::uint8_t>(next));
    });
    dirty = std::move(next);
  }
  return dirty;
}

/// Result of adaptive halo expansion: the dirty flags plus the radius
/// that was actually used (for telemetry).
struct AdaptiveHalo {
  std::vector<std::uint8_t> dirty;
  int hops = 0;
};

/// Adaptive halo: grows the dirty region hop by hop until the dirty
/// frontier's cut-weight share — the weight crossing the dirty/clean
/// boundary divided by the dirty region's volume — drops to
/// `cut_threshold` or below, or `max_hops` is reached.  A perturbation
/// that is still strongly coupled to its surroundings (high share)
/// keeps expanding; one that has absorbed its neighborhood (low share)
/// stops early, so the unseated region tracks the perturbation size
/// instead of one global constant.  Each round is a halo_hop plus two
/// parallel E/V sweeps for the share.
template <VertexId V>
[[nodiscard]] AdaptiveHalo expand_halo_adaptive(const CommunityGraph<V>& g,
                                                std::span<const V> touched,
                                                double cut_threshold, int max_hops) {
  AdaptiveHalo out;
  out.dirty.assign(static_cast<std::size_t>(g.nv), 0);
  for (const V v : touched) out.dirty[static_cast<std::size_t>(v)] = 1;
  const EdgeId ne = g.num_edges();
  const auto nv = static_cast<std::int64_t>(g.nv);

  const auto cut_share = [&]() -> double {
    const Weight cut = parallel_sum<Weight>(static_cast<std::int64_t>(ne), [&](std::int64_t e) {
      const auto i = static_cast<std::size_t>(e);
      const auto f = static_cast<std::size_t>(g.efirst[i]);
      const auto s = static_cast<std::size_t>(g.esecond[i]);
      return out.dirty[f] != out.dirty[s] ? g.eweight[i] : Weight{0};
    });
    const Weight vol = parallel_sum<Weight>(nv, [&](std::int64_t v) {
      return out.dirty[static_cast<std::size_t>(v)] != 0
                 ? g.volume[static_cast<std::size_t>(v)]
                 : Weight{0};
    });
    if (vol <= 0) return cut > 0 ? 1.0 : 0.0;
    return static_cast<double>(cut) / static_cast<double>(vol);
  };

  while (out.hops < max_hops && cut_share() > cut_threshold) {
    std::vector<std::uint8_t> next(out.dirty);
    const bool grew = halo_hop(g, std::span<const std::uint8_t>(out.dirty),
                               std::span<std::uint8_t>(next)) > 0;
    out.dirty = std::move(next);
    ++out.hops;
    if (!grew) break;  // the dirty region is a whole component
  }
  return out;
}

/// Seed labels for the warm start: dirty vertices are unseated into
/// fresh singleton communities, everyone else keeps `base_labels`, and
/// the result is compacted to a dense [0, k).  Returns (labels, k).
template <VertexId V>
[[nodiscard]] std::pair<std::vector<V>, std::int64_t> seed_labels(
    std::span<const V> base_labels, std::span<const std::uint8_t> dirty) {
  const auto n = static_cast<std::int64_t>(base_labels.size());
  std::int64_t num = 0;
  for (std::int64_t i = 0; i < n; ++i)
    num = std::max<std::int64_t>(num, base_labels[static_cast<std::size_t>(i)] + 1);
  std::vector<V> labels(static_cast<std::size_t>(n));
  parallel_for(n, [&](std::int64_t i) {
    const auto ii = static_cast<std::size_t>(i);
    // Fresh labels are unique and above the existing space; compaction
    // squeezes the holes (communities emptied by unseating) right after.
    labels[ii] = dirty[ii] != 0 ? static_cast<V>(num + i) : base_labels[ii];
  });
  const std::int64_t k = compact_labels(labels);
  return {std::move(labels), k};
}

/// Modularity and coverage of a dense labeling (values in
/// [0, num_labels)) over a CommunityGraph or a ShardedGraph: per-label
/// volume and internal weight from the per-vertex state plus one edge
/// sweep per range, then evaluate_partition's label-order reduction, so
/// both values equal evaluate_partition's bit for bit.
template <VertexState G, VertexId V>
[[nodiscard]] std::pair<double, double> labeling_quality(G& g, std::span<const V> labels,
                                                         std::int64_t num_labels) {
  std::vector<Weight> internal(static_cast<std::size_t>(num_labels), 0);
  std::vector<Weight> volume(static_cast<std::size_t>(num_labels), 0);
  fold_vertex_state(g, labels, std::span<Weight>(internal), std::span<Weight>(volume));
  // An empty bucket window: the label pass only folds intra-label edges.
  for_each_edge_range(g, [&](const auto& edges) {
    (void)count_label_range(edges, labels, V{0}, V{0}, std::span<EdgeId>{},
                            std::span<Weight>(internal));
  });
  if (g.total_weight == 0) return {0.0, 1.0};
  const auto w = static_cast<double>(g.total_weight);
  double modularity = 0.0;
  Weight inside = 0;
  for (std::int64_t c = 0; c < num_labels; ++c) {
    const auto i = static_cast<std::size_t>(c);
    inside += internal[i];
    const double vol = static_cast<double>(volume[i]) / (2.0 * w);
    modularity += static_cast<double>(internal[i]) / w - vol * vol;
  }
  return {modularity, static_cast<double>(inside) / w};
}

namespace detail {

/// Composes a warm run's coarse result back onto the base vertices:
/// base vertex v joins coarse community coarse.community[seeds[v]].
/// Level telemetry, termination, and quality come from the warm run
/// (quality is contraction-invariant, so they are the composed
/// labeling's values too).  The contraction dendrogram is not composed —
/// dynamic results do not populate `hierarchy`.
template <VertexId V>
[[nodiscard]] Clustering<V> compose_seeded(std::span<const V> seeds, Clustering<V> coarse) {
  Clustering<V> out;
  out.community.resize(seeds.size());
  parallel_for(static_cast<std::int64_t>(seeds.size()), [&](std::int64_t v) {
    const auto vi = static_cast<std::size_t>(v);
    out.community[vi] = coarse.community[static_cast<std::size_t>(seeds[vi])];
  });
  out.num_communities = coarse.num_communities;
  out.reason = coarse.reason;
  out.error = std::move(coarse.error);
  out.failed_level = std::move(coarse.failed_level);
  out.final_coverage = coarse.final_coverage;
  out.final_modularity = coarse.final_modularity;
  out.total_seconds = coarse.total_seconds;
  out.levels = std::move(coarse.levels);
  return out;
}

/// The kept-prior guard of both dynamic facades (modularity-family
/// scorers only).  Unseating discards the prior assignment's quality
/// floor, and greedy re-climbing can land in a worse basin — especially
/// when the halo dissolved most of the graph around frozen heavy
/// survivors.  The prior labels are still a valid assignment for the
/// updated graph `g` (same vertex set), so `next` becomes whichever
/// scores higher: a batch never leaves the clustering worse than
/// having applied no re-agglomeration at all.  Returns whether the
/// prior labels won.
template <VertexState G, VertexId V>
bool keep_prior_if_better(G& g, const Clustering<V>& prior, Clustering<V>& next,
                          ScorerKind scorer) {
  if (scorer != ScorerKind::kModularity && scorer != ScorerKind::kResolutionModularity)
    return false;
  const auto [prior_q, prior_cov] =
      labeling_quality(g, std::span<const V>(prior.community), prior.num_communities);
  if (prior_q <= next.final_modularity) return false;
  next = prior;
  next.final_modularity = prior_q;
  next.final_coverage = prior_cov;
  return true;
}

}  // namespace detail

/// Runs detection from the warm start — `base` contracted by the dense
/// seed labeling, every seed community one vertex carrying its members'
/// internal weight as a self-loop — and composes the coarse result back
/// onto the original vertices (detail::compose_seeded).
template <VertexId V>
[[nodiscard]] Clustering<V> seeded_agglomerate(const CommunityGraph<V>& base,
                                               std::span<const V> seeds,
                                               std::int64_t num_seeds,
                                               const DetectOptions& opts) {
  const CommunityGraph<V> warm = contract_by_labels(base, seeds, num_seeds);
  return detail::compose_seeded(seeds, detect_communities(warm, opts));
}

}  // namespace commdet
