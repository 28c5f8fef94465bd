// ShardedCommunities: batched edge updates over a maintained
// ShardedGraph + clustering — the dyn/ pipeline with every graph-sized
// step running shard-locally.
//
// The stages mirror dyn/dynamic_communities.hpp: sanitize, normalize,
// apply (routed to owning shards by the hashed-first endpoint), k-hop
// halo around the touched vertices, unseat the dirty region into
// singletons (dyn/seeded.hpp's seed_labels — it is graph-independent),
// contract the surviving assignment into a warm ShardedGraph, and
// re-agglomerate from there.  The warm-start tail is dyn/seeded.hpp's
// too: the coarse result is composed onto the base vertices by the
// unsharded composition, and the kept-prior quality guard (over
// labeling_quality, which takes either graph type) keeps a batch from
// leaving the clustering with worse modularity than not
// re-agglomerating at all.  Batches report obs::DynamicBatchRow, the
// unsharded facade's row.
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

#include "commdet/core/detect.hpp"
#include "commdet/dyn/seeded.hpp"
#include "commdet/graph/delta.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/obs/report.hpp"
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
  /// block is modified.  The row is the unsharded facade's, without its
  /// refresh fields (this facade has no refresh policy).
  Expected<obs::DynamicBatchRow> apply_batch(const DeltaBatch<V>& batch) {
    obs::ScopedSpan span("dyn.batch");
    span.attr("deltas", batch.size());
    span.attr("shards", static_cast<std::int64_t>(base_.num_shards()));
    obs::DynamicBatchRow row;
    row.batch = batches_;
    row.deltas = batch.size();
    row.halo_hops_used = opts_.halo_hops;
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
      row.effective = applied.report.effective;
      row.touched = static_cast<std::int64_t>(applied.touched.size());
      span.attr("effective", row.effective);

      if (!applied.touched.empty()) {
        COMMDET_FAULT_POINT(fault::kDynRecompute, Phase::kDynamic);
        WallTimer recompute_timer;
        const auto dirty =
            expand_halo(base_, std::span<const V>(applied.touched), opts_.halo_hops);
        for (const auto f : dirty) row.dirty += f;

        auto [seeds, num_seeds] =
            seed_labels<V>(std::span<const V>(clustering_.community),
                           std::span<const std::uint8_t>(dirty));
        row.seed_communities = num_seeds;
        span.attr("dirty", row.dirty);
        span.attr("seeds", num_seeds);

        DetectOptions detect = opts_.detect;
        if (detect.agglomeration.max_levels == 0 && opts_.warm_max_levels > 0)
          detect.agglomeration.max_levels = opts_.warm_max_levels;
        ShardedGraph<V> warm = contract_sharded_assignment(
            base_, std::span<const V>(seeds), num_seeds);
        Clustering<V> next = detail::compose_seeded(
            std::span<const V>(seeds), detect_communities_sharded(std::move(warm), detect));
        row.kept_prior =
            detail::keep_prior_if_better(base_, clustering_, next, opts_.detect.scorer);
        row.recompute_seconds = recompute_timer.seconds();

        clustering_ = std::move(next);
        clustering_.compact_labels();
      }
      // An unchanged graph keeps the clustering bit-for-bit.
      row.modularity = clustering_.final_modularity;
      row.coverage = clustering_.final_coverage;
      row.num_communities = clustering_.num_communities;
      row.termination = std::string(to_string(clustering_.reason));
      row.degraded = is_degraded(clustering_.reason);
      ++batches_;
      if (auto* c = obs::counter("dyn.batches")) c->add(1);
      if (auto* c = obs::counter("dyn.updates")) c->add(applied.report.applied);
      if (auto* c = obs::counter("dyn.updates_effective")) c->add(row.effective);
      if (auto* c = obs::counter("dyn.unseated")) c->add(row.dirty);
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

  ShardedGraph<V> base_;
  ShardedDynamicOptions opts_;
  Clustering<V> clustering_;
  std::int64_t batches_ = 0;  // batches committed
};

}  // namespace commdet
