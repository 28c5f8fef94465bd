// ShardedCommunities: batched edge updates over a maintained
// ShardedGraph + clustering — the dyn/ pipeline with every graph-sized
// step running shard-locally.
//
// The stages mirror dyn/dynamic_communities.hpp: sanitize, normalize,
// apply (routed to owning shards by the hashed-first endpoint), k-hop
// halo around the touched vertices, unseat the dirty region into
// singletons (dyn/seeded.hpp's seed_labels — it is graph-independent),
// contract the surviving assignment into a warm ShardedGraph, and
// re-agglomerate from there.  The kept-prior quality guard carries over
// too: a batch never leaves the clustering with worse modularity than
// not re-agglomerating at all.
//
// One deliberate difference from the unsharded facade: the graph
// mutation is IN PLACE, not staged — an out-of-core graph exists
// precisely because a second copy does not fit.  Sanitization and delta
// validation run before the first block is modified, so the error cases
// a caller can trigger still leave the graph untouched; a failure
// *after* apply (in re-agglomeration) keeps the previous clustering,
// which remains a valid assignment for the mutated graph — the same
// fallback the kept-prior guard formalizes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "commdet/contract/label_contractor.hpp"
#include "commdet/contract/relabel.hpp"
#include "commdet/core/detect.hpp"
#include "commdet/dyn/seeded.hpp"
#include "commdet/graph/delta.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/robust/error.hpp"
#include "commdet/robust/expected.hpp"
#include "commdet/robust/fault_injection.hpp"
#include "commdet/robust/sanitize.hpp"
#include "commdet/shard/shard_contract.hpp"
#include "commdet/shard/shard_detect.hpp"
#include "commdet/shard/sharded_graph.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/timer.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

/// Modularity + coverage of an arbitrary dense labeling over a sharded
/// graph: one leased edge sweep accumulating per-label internal weight
/// and volume, then the sequential label-order reduction
/// evaluate_partition uses.  Backs the kept-prior guard.
template <VertexId V>
[[nodiscard]] std::pair<double, double> sharded_labeling_quality(ShardedGraph<V>& sg,
                                                                 std::span<const V> labels,
                                                                 std::int64_t num_labels) {
  std::vector<Weight> internal(static_cast<std::size_t>(num_labels), 0);
  std::vector<Weight> volume(static_cast<std::size_t>(num_labels), 0);
  fold_vertex_state(sg, labels, std::span<Weight>(internal), std::span<Weight>(volume));
  // An empty bucket window: the label pass only folds intra-label edges.
  for_each_edge_range(sg, [&](const ShardBlock<V>& b) {
    (void)count_label_range(b, labels, V{0}, V{0}, std::span<EdgeId>{},
                            std::span<Weight>(internal));
  });
  if (sg.total_weight == 0) return {0.0, 1.0};
  const auto w = static_cast<double>(sg.total_weight);
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

struct ShardedDynamicOptions {
  /// Scorer / agglomeration / refinement for the initial detection and
  /// every seeded re-agglomeration (refinement assembles the graph —
  /// leave it off for out-of-core runs).
  DetectOptions detect;

  /// Halo radius around touched vertices (dyn/ semantics; no adaptive
  /// mode here — the cut-share probe would cost an extra E sweep per
  /// hop over spilled blocks).
  int halo_hops = 1;

  /// Warm-run level cap applied when detect.agglomeration.max_levels is
  /// unset, same rationale as DynamicOptions::warm_max_levels.
  int warm_max_levels = 16;

  /// Batch sanitization (robust/sanitize.hpp sanitize_deltas).
  bool sanitize_input = true;
  SanitizeOptions sanitize;
};

/// What one committed sharded batch did.
struct ShardedBatchResult {
  DeltaApplyReport report;
  std::int64_t touched = 0;            // vertices incident to effective deltas
  std::int64_t dirty = 0;              // after halo expansion
  std::int64_t seed_communities = 0;   // warm-start community count
  bool kept_prior = false;             // quality guard restored the old labels
  double apply_seconds = 0.0;
  double recompute_seconds = 0.0;
  double modularity = 0.0;
  double coverage = 0.0;
  std::int64_t num_communities = 0;
};

/// Maintains a ShardedGraph and its clustering across delta batches.
template <VertexId V>
class ShardedCommunities {
 public:
  /// Takes ownership of the sharded base graph and runs the initial
  /// detection on a structural copy (the driver consumes its input; the
  /// copy is made by the identity contraction, which re-canonicalizes
  /// into bit-identical blocks).
  explicit ShardedCommunities(ShardedGraph<V> base, ShardedDynamicOptions opts = {})
      : base_(std::move(base)), opts_(std::move(opts)) {
    clustering_ = detect_communities_sharded(clone_base(), opts_.detect);
    clustering_.compact_labels();
  }

  /// Applies one batch: mutate the owning shards in place, then restore
  /// the clustering by seeded re-agglomeration.  Validation failures
  /// (bad endpoints/weights, sanitizer rejection) surface before any
  /// block is modified.
  Expected<ShardedBatchResult> apply_batch(const DeltaBatch<V>& batch) {
    obs::ScopedSpan span("dyn.batch");
    span.attr("deltas", batch.size());
    span.attr("shards", static_cast<std::int64_t>(base_.num_shards()));
    ShardedBatchResult row;
    try {
      DeltaBatch<V> cleaned = batch;
      if (opts_.sanitize_input) {
        auto rep = sanitize_deltas(cleaned, base_.nv, opts_.sanitize);
        if (!rep.has_value()) return Unexpected(rep.error());
      }
      const auto normalized = normalize_deltas(cleaned);

      WallTimer apply_timer;
      COMMDET_FAULT_POINT(fault::kDynApply, Phase::kDynamic);
      ShardedDeltaApplied<V> applied =
          apply_delta(base_, std::span<const EdgeDelta<V>>(normalized));
      row.apply_seconds = apply_timer.seconds();
      row.report = applied.report;
      row.touched = static_cast<std::int64_t>(applied.touched.size());
      span.attr("effective", row.report.effective);

      if (applied.touched.empty()) {
        // Nothing changed: keep the clustering bit-for-bit.
        fill_quality(row);
        commit_counters(row);
        return row;
      }

      COMMDET_FAULT_POINT(fault::kDynRecompute, Phase::kDynamic);
      WallTimer recompute_timer;
      const auto dirty =
          expand_halo(base_, std::span<const V>(applied.touched), opts_.halo_hops);
      std::int64_t dirty_count = 0;
      for (const auto f : dirty) dirty_count += f;
      row.dirty = dirty_count;

      auto [seeds, num_seeds] =
          seed_labels<V>(std::span<const V>(clustering_.community),
                         std::span<const std::uint8_t>(dirty));
      row.seed_communities = num_seeds;
      span.attr("dirty", dirty_count);
      span.attr("seeds", num_seeds);

      DetectOptions detect = opts_.detect;
      if (detect.agglomeration.max_levels == 0 && opts_.warm_max_levels > 0)
        detect.agglomeration.max_levels = opts_.warm_max_levels;
      ShardedGraph<V> warm = contract_sharded_assignment(
          base_, std::span<const V>(seeds), num_seeds);
      Clustering<V> coarse = detect_communities_sharded(std::move(warm), detect);

      // Compose the coarse result back onto the base vertices.
      Clustering<V> next;
      next.community.resize(static_cast<std::size_t>(base_.nv));
      parallel_for(static_cast<std::int64_t>(base_.nv), [&](std::int64_t v) {
        const auto vi = static_cast<std::size_t>(v);
        next.community[vi] = coarse.community[static_cast<std::size_t>(seeds[vi])];
      });
      next.num_communities = coarse.num_communities;
      next.reason = coarse.reason;
      next.error = std::move(coarse.error);
      next.final_modularity = coarse.final_modularity;
      next.final_coverage = coarse.final_coverage;
      next.levels = std::move(coarse.levels);

      // Kept-prior quality guard (modularity-family scorers only): the
      // old labels are still a valid assignment for the mutated graph.
      if (opts_.detect.scorer == ScorerKind::kModularity ||
          opts_.detect.scorer == ScorerKind::kResolutionModularity) {
        const auto [prior_q, prior_cov] = sharded_labeling_quality(
            base_, std::span<const V>(clustering_.community),
            clustering_.num_communities);
        if (prior_q > next.final_modularity) {
          Clustering<V> kept = clustering_;
          kept.final_modularity = prior_q;
          kept.final_coverage = prior_cov;
          next = std::move(kept);
          row.kept_prior = true;
        }
      }
      row.recompute_seconds = recompute_timer.seconds();

      clustering_ = std::move(next);
      clustering_.compact_labels();
      fill_quality(row);
      commit_counters(row);
      return row;
    } catch (const std::exception& e) {
      span.set_error();
      return Unexpected(error_from_exception(e, Phase::kDynamic));
    }
  }

  /// Full from-scratch refresh over the current sharded graph.
  const Clustering<V>& recompute() {
    clustering_ = detect_communities_sharded(clone_base(), opts_.detect);
    clustering_.compact_labels();
    return clustering_;
  }

  [[nodiscard]] ShardedGraph<V>& graph() noexcept { return base_; }
  [[nodiscard]] const Clustering<V>& clustering() const noexcept { return clustering_; }
  [[nodiscard]] const ShardedDynamicOptions& options() const noexcept { return opts_; }
  [[nodiscard]] std::int64_t num_communities() const noexcept {
    return clustering_.num_communities;
  }
  [[nodiscard]] V community_of(V v) const {
    return clustering_.community[static_cast<std::size_t>(v)];
  }

 private:
  /// Structural deep copy via the identity contraction: every vertex is
  /// its own label, so nothing folds and nothing merges, and the
  /// per-bucket canonicalization reproduces the blocks bit for bit
  /// (spill configuration carries over, with fresh spill files).
  [[nodiscard]] ShardedGraph<V> clone_base() {
    std::vector<V> identity(static_cast<std::size_t>(base_.nv));
    parallel_for(static_cast<std::int64_t>(base_.nv), [&](std::int64_t v) {
      identity[static_cast<std::size_t>(v)] = static_cast<V>(v);
    });
    return contract_sharded_assignment(base_, std::span<const V>(identity),
                                       static_cast<std::int64_t>(base_.nv));
  }

  void fill_quality(ShardedBatchResult& row) const {
    row.modularity = clustering_.final_modularity;
    row.coverage = clustering_.final_coverage;
    row.num_communities = clustering_.num_communities;
  }

  void commit_counters(const ShardedBatchResult& row) {
    if (auto* c = obs::counter("dyn.batches")) c->add(1);
    if (auto* c = obs::counter("dyn.updates")) c->add(row.report.applied);
    if (auto* c = obs::counter("dyn.updates_effective")) c->add(row.report.effective);
    if (auto* c = obs::counter("dyn.unseated")) c->add(row.dirty);
  }

  ShardedGraph<V> base_;
  ShardedDynamicOptions opts_;
  Clustering<V> clustering_;
};

}  // namespace commdet
