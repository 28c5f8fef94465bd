// Parallel Louvain (PLM — Staudt & Meyerhenke's parallel local moving,
// with the minimum-label tie handling of Lu & Halappanavar), the
// quality-per-cost middle ground behind DetectPlan.
//
// Two nested phases, like the 2008 serial method: (1) parallel local
// moves — every vertex concurrently joins the neighboring community
// with the best positive modularity gain, against atomically maintained
// community volumes; (2) aggregation — the level's labeling is
// contracted into a coarser graph by the same label-keyed bucket-sort
// contraction the dyn/ warm-start path uses (contract/
// label_contractor.hpp), and the loop repeats on the coarse graph.
// Volumes are exact integers, so the gain arithmetic is stable; the
// move schedule is racy by design (Staudt–Meyerhenke show the quality
// loss is negligible), which makes labels nondeterministic run to run
// while the modularity landed on is equivalent.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "commdet/algo/plan.hpp"
#include "commdet/contract/label_contractor.hpp"
#include "commdet/core/clustering.hpp"
#include "commdet/core/metrics.hpp"
#include "commdet/graph/community_graph.hpp"
#include "commdet/graph/csr.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/refine/refine.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/timer.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

namespace detail {

/// One parallel local-move pass over the level graph: every vertex
/// greedily re-homes against live (atomic) community volumes.  Returns
/// the number of moves.  `comm` and `comm_vol` are shared state read
/// and written through atomic_ref; the races (stale neighbor labels,
/// stale volumes) are the PLM trade — bounded quality noise for
/// near-linear scaling.
template <VertexId V>
[[nodiscard]] std::int64_t plm_move_pass(const CsrGraph<V>& g,
                                         std::span<const Weight> vertex_vol,
                                         double w_total, double min_gain,
                                         std::vector<V>& comm,
                                         std::vector<Weight>& comm_vol) {
  const auto nv = static_cast<std::int64_t>(g.num_vertices());
  const double inv_w = 1.0 / w_total;
  struct Mover { std::vector<std::pair<V, Weight>> scratch; std::int64_t moved = 0; };
  const auto move = [&](Mover& t, std::int64_t v) {
    const auto vi = static_cast<std::size_t>(v);
    const auto nbrs = g.neighbors_of(static_cast<V>(v));
    if (nbrs.empty()) return;
    const auto wts = g.weights_of(static_cast<V>(v));
    const V home = std::atomic_ref<V>(comm[vi]).load(std::memory_order_relaxed);

    // Gather edge weight per neighboring community, ascending label
    // (sorted gather; the first strict maximum is the smallest
    // label, Lu–Halappanavar's deterministic tie handling).
    t.scratch.clear();
    for (std::size_t k = 0; k < nbrs.size(); ++k)
      t.scratch.emplace_back(std::atomic_ref<V>(comm[static_cast<std::size_t>(nbrs[k])])
                                 .load(std::memory_order_relaxed),
                             wts[k]);
    std::sort(t.scratch.begin(), t.scratch.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    const double vol_v = static_cast<double>(vertex_vol[vi]);
    Weight w_home = 0;
    for (const auto& [c, w] : t.scratch)
      if (c == home) w_home += w;
    // Gain of living in community c (v's own volume removed first):
    //   k_{v,c}/W - vol(c) * vol(v) / (2 W^2)
    const double vol_home =
        static_cast<double>(std::atomic_ref<Weight>(comm_vol[static_cast<std::size_t>(home)])
                                .load(std::memory_order_relaxed)) -
        static_cast<double>(vertex_vol[vi]);
    double best_gain = static_cast<double>(w_home) * inv_w -
                       vol_home * vol_v * inv_w * inv_w * 0.5;
    V best = home;
    std::size_t i = 0;
    while (i < t.scratch.size()) {
      const V c = t.scratch[i].first;
      Weight w_vc = 0;
      for (; i < t.scratch.size() && t.scratch[i].first == c; ++i) w_vc += t.scratch[i].second;
      if (c == home) continue;
      const double vol_c = static_cast<double>(
          std::atomic_ref<Weight>(comm_vol[static_cast<std::size_t>(c)])
              .load(std::memory_order_relaxed));
      const double gain = static_cast<double>(w_vc) * inv_w -
                          vol_c * vol_v * inv_w * inv_w * 0.5;
      if (gain > best_gain + min_gain) {
        best_gain = gain;
        best = c;
      }
    }
    if (best != home) {
      std::atomic_ref<Weight>(comm_vol[static_cast<std::size_t>(home)])
          .fetch_sub(vertex_vol[vi], std::memory_order_relaxed);
      std::atomic_ref<Weight>(comm_vol[static_cast<std::size_t>(best)])
          .fetch_add(vertex_vol[vi], std::memory_order_relaxed);
      std::atomic_ref<V>(comm[vi]).store(best, std::memory_order_relaxed);
      ++t.moved;
    }
  };
  std::int64_t moved = 0;
  for (const Mover& t :
       parallel_for_each_thread(nv, dynamic_schedule(256), [] { return Mover{}; }, move))
    moved += t.moved;
  return moved;
}

}  // namespace detail

/// Runs PLM over `input` and returns the standard Clustering contract
/// with the "algorithm" provenance filled in (iterations = levels).
/// When `opts.refine` is set, one parallel local-move refinement pass
/// over the original graph follows the level loop.
template <VertexId V>
[[nodiscard]] Clustering<V> parallel_louvain(const CommunityGraph<V>& input,
                                             const PlmOptions& opts = {}) {
  WallTimer timer;
  obs::ScopedSpan span("louvain");
  const auto original_nv = static_cast<std::int64_t>(input.nv);

  Clustering<V> result;
  result.algorithm.emplace();
  result.algorithm->name = "louvain";
  result.community.resize(static_cast<std::size_t>(original_nv));
  for (std::int64_t v = 0; v < original_nv; ++v)
    result.community[static_cast<std::size_t>(v)] = static_cast<V>(v);
  result.num_communities = original_nv;
  if (original_nv == 0 || input.total_weight == 0) {
    result.total_seconds = timer.seconds();
    return result;
  }

  const double w_total = static_cast<double>(input.total_weight);
  CommunityGraph<V> level_graph(input);
  if (static_cast<std::int64_t>(level_graph.volume.size()) != original_nv)
    level_graph.recompute_volumes();

  int levels = 0;
  bool converged = false;
  while (levels < opts.max_levels) {
    const auto nv = static_cast<std::int64_t>(level_graph.nv);
    const CsrGraph<V> g = to_csr(level_graph);
    std::vector<V> comm(static_cast<std::size_t>(nv));
    for (std::int64_t v = 0; v < nv; ++v)
      comm[static_cast<std::size_t>(v)] = static_cast<V>(v);
    std::vector<Weight> comm_vol = level_graph.volume;

    // Phase 1: parallel local moves until a pass moves nothing.
    bool any_move = false;
    for (int pass = 0; pass < opts.max_passes_per_level; ++pass) {
      const std::int64_t moved = detail::plm_move_pass(
          g, std::span<const Weight>(level_graph.volume), w_total, opts.min_gain,
          comm, comm_vol);
      if (moved == 0) break;
      any_move = true;
    }
    if (!any_move) {
      converged = true;
      break;
    }
    ++levels;

    // Compose the level's labeling onto the original vertices, densify.
    const std::int64_t k = compact_labels(comm);
    parallel_for(original_nv, [&](std::int64_t v) {
      auto& c = result.community[static_cast<std::size_t>(v)];
      c = comm[static_cast<std::size_t>(c)];
    });
    result.num_communities = k;
    if (k >= nv) {
      // Every move canceled out (labels permuted without merging):
      // contraction would not shrink the graph, so the level loop is
      // done climbing.
      converged = true;
      break;
    }

    // Phase 2: aggregate with the shared label-keyed contraction.
    level_graph = contract_by_labels(level_graph, std::span<const V>(comm), k);
  }

  if (opts.refine) {
    (void)refine_partition(input, result.community, RefineOptions{});
    result.algorithm->refine = "local-move";
  }

  result.num_communities = compact_labels(result.community);
  const PartitionQuality q = evaluate_partition(
      input, std::span<const V>(result.community.data(), result.community.size()));
  result.final_modularity = q.modularity;
  result.final_coverage = q.coverage;
  result.reason =
      converged ? TerminationReason::kLocalMaximum : TerminationReason::kLevelCap;
  result.algorithm->iterations = levels;
  result.algorithm->converged = converged;
  result.total_seconds = timer.seconds();
  span.attr("levels", static_cast<std::int64_t>(levels));
  span.attr("communities", result.num_communities);
  if (auto* c = obs::counter("algo.louvain.levels")) c->add(levels);
  return result;
}

}  // namespace commdet
