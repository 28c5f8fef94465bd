// High-level detection facade: runtime-configurable scorer selection and
// optional refinement over the templated driver.
//
// The templated agglomerate() is the zero-overhead API; this facade is
// the convenience entry point for CLIs, config-driven services, and
// language bindings, where the metric arrives as data rather than as a
// type.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "commdet/algo/cdlp.hpp"
#include "commdet/algo/louvain.hpp"
#include "commdet/algo/plan.hpp"
#include "commdet/core/agglomerate.hpp"
#include "commdet/core/metrics.hpp"
#include "commdet/core/clustering.hpp"
#include "commdet/core/options.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/graph/edge_list.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/refine/multilevel.hpp"
#include "commdet/refine/refine.hpp"
#include "commdet/robust/sanitize.hpp"
#include "commdet/shard/shard_detect.hpp"
#include "commdet/shard/sharded_graph.hpp"
#include "commdet/util/rng.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

enum class ScorerKind {
  kModularity,
  kConductance,
  kHeavyEdge,
  kResolutionModularity,
};

[[nodiscard]] constexpr std::string_view to_string(ScorerKind s) noexcept {
  switch (s) {
    case ScorerKind::kModularity: return "modularity";
    case ScorerKind::kConductance: return "conductance";
    case ScorerKind::kHeavyEdge: return "heavy-edge";
    case ScorerKind::kResolutionModularity: return "resolution-modularity";
  }
  return "unknown";
}

struct DetectOptions {
  ScorerKind scorer = ScorerKind::kModularity;
  double resolution_gamma = 1.0;  // for kResolutionModularity
  AgglomerationOptions agglomeration;

  enum class RefineMode {
    kNone,     // raw agglomerative result
    kFlat,     // one parallel local-move pass over the original graph
    kVCycle,   // multilevel refinement down the recorded hierarchy
  };
  RefineMode refine_mode = RefineMode::kNone;
  RefineOptions refinement;

  /// Back-compat convenience for the common flat case.
  bool refine = false;  // treated as kFlat when refine_mode is kNone

  /// Input sanitization for the EdgeList entry point: one parallel
  /// sweep rejecting or repairing bad endpoints/weights before graph
  /// build.  Ignored by the CommunityGraph overload (already built).
  bool sanitize_input = true;
  SanitizeOptions sanitize;
};

/// One spelling of the refine mode for span attributes, provenance, and
/// the report writer (previously duplicated as inline ternaries).
[[nodiscard]] constexpr std::string_view to_string(DetectOptions::RefineMode m) noexcept {
  switch (m) {
    case DetectOptions::RefineMode::kNone: return "none";
    case DetectOptions::RefineMode::kFlat: return "flat";
    case DetectOptions::RefineMode::kVCycle: return "vcycle";
  }
  return "unknown";
}

namespace detail {

/// Dispatches a runtime ScorerKind to the statically typed scorer and
/// invokes `run` with it.  Shared by the fresh and resume paths so both
/// select scorers identically.
template <typename F>
[[nodiscard]] auto with_scorer(ScorerKind kind, double gamma, F&& run) {
  switch (kind) {
    case ScorerKind::kConductance: return run(ConductanceScorer{});
    case ScorerKind::kHeavyEdge: return run(HeavyEdgeScorer{});
    case ScorerKind::kResolutionModularity: return run(ResolutionModularityScorer{gamma});
    case ScorerKind::kModularity: break;
  }
  return run(ModularityScorer{});
}

/// Folds the facade-level configuration (scorer identity, resolution
/// gamma) into the checkpoint fingerprint salt: a checkpoint written
/// under one metric must not silently resume under another.
[[nodiscard]] inline std::uint64_t fold_detect_salt(std::uint64_t salt, ScorerKind scorer,
                                                    double gamma) noexcept {
  std::uint64_t h = mix64(salt ^ 0x64657465637426ULL);
  h = mix64(h ^ static_cast<std::uint64_t>(scorer));
  if (scorer == ScorerKind::kResolutionModularity)
    h = mix64(h ^ std::bit_cast<std::uint64_t>(gamma));
  return h;
}

/// Scorers that reward every merge (heavy-edge, conductance) need an
/// external stop: throws std::invalid_argument when none is set.
inline void reject_unbounded_scorer(const DetectOptions& opts) {
  const bool unbounded =
      opts.scorer == ScorerKind::kHeavyEdge || opts.scorer == ScorerKind::kConductance;
  if (unbounded && opts.agglomeration.min_coverage > 1.0 &&
      opts.agglomeration.min_communities <= 1 && opts.agglomeration.max_levels == 0 &&
      opts.agglomeration.max_community_size == 0) {
    throw std::invalid_argument(
        std::string(to_string(opts.scorer)) +
        " scoring never reaches a local maximum; set a coverage/size/level limit");
  }
}

/// The per-run option adjustments the facade applies before handing the
/// AgglomerationOptions to the driver.
[[nodiscard]] inline std::pair<AgglomerationOptions, DetectOptions::RefineMode>
prepare_agglomeration(const DetectOptions& opts) {
  auto agglomeration = opts.agglomeration;
  const auto mode = opts.refine_mode == DetectOptions::RefineMode::kNone && opts.refine
                        ? DetectOptions::RefineMode::kFlat
                        : opts.refine_mode;
  if (mode == DetectOptions::RefineMode::kVCycle) agglomeration.track_hierarchy = true;
  agglomeration.checkpoint.config_salt =
      fold_detect_salt(agglomeration.checkpoint.config_salt, opts.scorer, opts.resolution_gamma);
  return {std::move(agglomeration), mode};
}

/// Stamps the agglomerative backend's provenance onto a driver result.
template <VertexId V>
void stamp_agglomerative_provenance(Clustering<V>& result, DetectOptions::RefineMode mode) {
  result.algorithm.emplace();
  result.algorithm->name = "agglomerative";
  result.algorithm->iterations = result.num_levels();
  result.algorithm->converged = !is_degraded(result.reason);
  if (mode != DetectOptions::RefineMode::kNone)
    result.algorithm->refine = std::string(to_string(mode));
}

/// Post-agglomeration refinement shared by detect and resume.
template <VertexId V>
void apply_refinement(const CommunityGraph<V>& g, Clustering<V>& result,
                      DetectOptions::RefineMode mode, const DetectOptions& opts) {
  if (mode == DetectOptions::RefineMode::kFlat) {
    const auto stats = refine_partition(g, result.community, opts.refinement);
    result.final_modularity = stats.modularity_after;
    std::int64_t num = 0;
    for (const V c : result.community) num = std::max<std::int64_t>(num, c + 1);
    result.num_communities = num;
    // Coverage changed with the moves; recompute from the labels.
    result.final_coverage =
        evaluate_partition(g, std::span<const V>(result.community.data(),
                                                 result.community.size()))
            .coverage;
  } else if (mode == DetectOptions::RefineMode::kVCycle) {
    multilevel_refine(g, result, opts.refinement);
  }
}

}  // namespace detail

/// Detects communities with runtime-selected metric and optional
/// refinement.  The input graph is retained by the caller: the driver's
/// first level reads it in place (refinement needs it too), and it is
/// never modified.
template <VertexId V>
[[nodiscard]] Clustering<V> detect_communities(const CommunityGraph<V>& g,
                                               const DetectOptions& opts = {}) {
  detail::reject_unbounded_scorer(opts);

  const auto [agglomeration, mode] = detail::prepare_agglomeration(opts);

  obs::ScopedSpan span("detect");
  span.attr("scorer", to_string(opts.scorer));
  span.attr("refine", to_string(mode));

  Clustering<V> result =
      detail::with_scorer(opts.scorer, opts.resolution_gamma, [&](const auto& scorer) {
        return detail::agglomerate_impl(CommunityGraph<V>{}, &g, scorer, agglomeration,
                                        static_cast<CheckpointState<V>*>(nullptr));
      });

  detail::apply_refinement(g, result, mode, opts);
  detail::stamp_agglomerative_provenance(result, mode);
  return result;
}

/// Sharded detection entry point: runs the agglomeration over a
/// partitioned (optionally out-of-core) graph, consumed by the driver.
/// Same scorer/refinement knobs as detect_communities; when refinement
/// is requested the original graph is assembled from the shards first
/// (refinement moves vertices of the ORIGINAL graph, which the driver's
/// contractions destroy).  Out-of-core runs normally skip refinement —
/// assembly materializes the full graph in memory.
template <VertexId V>
[[nodiscard]] Clustering<V> detect_communities_sharded(ShardedGraph<V> sg,
                                                       const DetectOptions& opts = {}) {
  detail::reject_unbounded_scorer(opts);

  const auto [agglomeration, mode] = detail::prepare_agglomeration(opts);

  obs::ScopedSpan span("detect");
  span.attr("scorer", to_string(opts.scorer));
  span.attr("refine", to_string(mode));
  span.attr("shards", static_cast<std::int64_t>(sg.num_shards()));

  // Refinement needs the original graph, which the sharded driver
  // consumes level by level — assemble a copy up front only when asked.
  CommunityGraph<V> original;
  const bool need_original = mode != DetectOptions::RefineMode::kNone;
  if (need_original) original = sg.assemble();

  Clustering<V> result =
      detail::with_scorer(opts.scorer, opts.resolution_gamma, [&](const auto& scorer) {
        return sharded_agglomerate(std::move(sg), scorer, agglomeration);
      });

  if (need_original) detail::apply_refinement(original, result, mode, opts);
  detail::stamp_agglomerative_provenance(result, mode);
  result.algorithm->name = "agglo-sharded";
  return result;
}

/// Plan-dispatched detection: runs the backend the DetectPlan selects.
/// `opts` configures the agglomerative backend (scorer, agglomeration,
/// refinement) exactly as the plan-less overload does; the CDLP and
/// Louvain backends are configured by the plan's own knobs and ignore
/// it.  Every backend returns the same Clustering contract with the
/// "algorithm" provenance object filled in.
template <VertexId V>
[[nodiscard]] Clustering<V> detect_communities(const CommunityGraph<V>& g,
                                               const DetectPlan& plan,
                                               const DetectOptions& opts = {}) {
  switch (plan.algorithm()) {
    case AlgorithmKind::kLabelPropagationSync:
      return cdlp_cluster(g, plan.cdlp(), /*synchronous=*/true);
    case AlgorithmKind::kLabelPropagationAsync:
      return cdlp_cluster(g, plan.cdlp(), /*synchronous=*/false);
    case AlgorithmKind::kLouvain:
      return parallel_louvain(g, plan.plm());
    case AlgorithmKind::kAggloSharded: {
      const auto& sh = plan.shard();
      return detect_communities_sharded(
          partition_graph(g, sh.shards, ShardSpill{sh.spill, sh.spill_dir}), opts);
    }
    case AlgorithmKind::kAgglomerative:
      break;
  }
  return detect_communities(g, opts);
}

/// Raw edge-list entry point: sanitizes (per opts.sanitize) a copy of
/// the list, builds the community graph, and detects.  Without
/// sanitization the graph is built from `edges` directly.  Throws
/// CommdetError when the input is rejected or unrepairable; a run-time
/// failure *after* a valid build degrades gracefully via the driver
/// instead of throwing.
template <VertexId V>
[[nodiscard]] Clustering<V> detect_communities(const EdgeList<V>& edges,
                                               const DetectOptions& opts = {}) {
  if (!opts.sanitize_input) return detect_communities(build_community_graph(edges), opts);
  EdgeList<V> cleaned = edges;
  (void)sanitize_edges(cleaned, opts.sanitize).value_or_throw();
  return detect_communities(build_community_graph(cleaned), opts);
}

/// Resumes an interrupted detect_communities run from a checkpoint
/// (consumed).  `g` is the same original graph the checkpoint's run
/// started from — it is needed for the refinement passes, which operate
/// on the original vertices; the agglomeration itself continues from the
/// checkpointed community graph.  The options must match the original
/// run's configuration (ErrorCode::kCheckpointMismatch otherwise).
template <VertexId V>
[[nodiscard]] Clustering<V> resume_detect(const CommunityGraph<V>& g, CheckpointState<V> ckpt,
                                          const DetectOptions& opts = {}) {
  const auto [agglomeration, mode] = detail::prepare_agglomeration(opts);

  obs::ScopedSpan span("detect");
  span.attr("scorer", to_string(opts.scorer));
  span.attr("resumed_from", ckpt.source_path);

  Clustering<V> result =
      detail::with_scorer(opts.scorer, opts.resolution_gamma, [&](const auto& scorer) {
        return resume_agglomerate(std::move(ckpt), scorer, agglomeration);
      });

  detail::apply_refinement(g, result, mode, opts);
  detail::stamp_agglomerative_provenance(result, mode);
  return result;
}

}  // namespace commdet
