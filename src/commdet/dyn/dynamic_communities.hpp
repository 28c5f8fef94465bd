// DynamicCommunities: batched edge updates with incremental
// re-agglomeration over a maintained base graph + clustering.
//
// apply_batch() is transactional: the batch is sanitized, normalized
// (last-writer-wins), applied to a *staged* copy of the graph arrays
// (graph/builder.hpp apply_delta), and the clustering is restored by
// seeded re-agglomeration (dyn/seeded.hpp).  Only when every step
// succeeds are the staged graph and the new clustering committed; any
// failure — injected fault, budget violation, contained exception —
// leaves the previous graph and clustering untouched (no torn
// membership), and the structured error is returned.
//
// A batch with no effective change (all deltas were no-ops, e.g. an
// empty batch or deleting absent edges) takes a fast path that keeps
// the current clustering bit-for-bit: the agglomeration loop always
// contracts at least one level, so re-running it from an unchanged warm
// start could only churn labels for nothing.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <span>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "commdet/core/clustering.hpp"
#include "commdet/core/detect.hpp"
#include "commdet/core/metrics.hpp"
#include "commdet/dyn/seeded.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/graph/community_graph.hpp"
#include "commdet/graph/delta.hpp"
#include "commdet/io/snapshot.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/obs/report.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/robust/budget.hpp"
#include "commdet/robust/checkpoint.hpp"
#include "commdet/robust/error.hpp"
#include "commdet/robust/expected.hpp"
#include "commdet/robust/fault_injection.hpp"
#include "commdet/robust/sanitize.hpp"
#include "commdet/util/timer.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

struct DynamicOptions {
  /// Scorer / agglomeration / refinement configuration for the initial
  /// detection and every seeded re-agglomeration.
  DetectOptions detect;

  /// Halo radius: how many hops beyond the directly touched vertices
  /// are unseated into singletons before re-agglomeration.  0 = only
  /// the endpoints of changed edges; larger values trade update cost
  /// for quality headroom around the perturbation.  -1 = adaptive: pick
  /// the radius per batch from the perturbation itself, expanding until
  /// the dirty frontier's cut-weight share drops below
  /// `halo_cut_threshold` or `halo_max_hops` is reached.
  int halo_hops = 1;

  /// Adaptive-halo stop condition (halo_hops == -1 only): expansion
  /// stops once cut(dirty, clean) / volume(dirty) falls to or below
  /// this share — the perturbation is then mostly self-contained.
  double halo_cut_threshold = 0.25;

  /// Adaptive-halo radius cap (halo_hops == -1 only).
  int halo_max_hops = 4;

  /// Quality-triggered full refresh: when the maintained clustering's
  /// modularity falls more than this margin below the best modularity
  /// seen since the last full recompute (a cheap upper-bound proxy —
  /// incremental maintenance only loses quality relative to it),
  /// recompute() runs automatically after the batch commits.  0
  /// disables.  Modularity-family scorers only.
  double refresh_margin = 0.0;

  /// Cadence-triggered full refresh: recompute() after every N
  /// committed batches regardless of drift.  0 disables.  Like the run
  /// budget, refresh cadence is operational tuning: it is excluded from
  /// the config fingerprint, so a restarted stream may change it.
  int refresh_every = 0;

  /// Backend the triggered refresh runs (DetectPlan; default
  /// agglomerative = the classic recompute()).  A label-propagation
  /// plan makes routine refresh ticks O(E)-per-sweep instead of a full
  /// agglomeration — the serve layer's quality-vs-latency knob.  Like
  /// refresh cadence, this is operational tuning excluded from the
  /// config fingerprint.
  DetectPlan refresh_plan;

  /// Level cap for the warm (seeded) re-agglomeration only, applied
  /// when detect.agglomeration.max_levels is unset.  Heavy matching
  /// absorbs the unseated singletons around a hub one per level (a
  /// matching pairs each community with at most one partner), so the
  /// warm run can trail off into hundreds of near-empty levels that
  /// shrink the graph by O(1) vertices each.  Capping the tail loses
  /// almost no quality — the stragglers are recovered by refinement
  /// (one local-move sweep handles a star) or by the kept-prior quality
  /// guard.  0 disables the cap.  Ignored by recompute(), which is a
  /// full from-scratch run.
  int warm_max_levels = 16;

  /// Per-batch resource budget.  When limited, the wall-clock deadline
  /// covers the whole batch (apply + recompute) and the budget is also
  /// handed to the re-agglomeration driver, which degrades gracefully
  /// (commits the best clustering it reached) rather than failing the
  /// batch.  A deadline that fires *before* re-agglomeration starts
  /// fails the batch and rolls back.
  RunBudget batch_budget;

  /// Batch sanitization (robust/sanitize.hpp sanitize_deltas).
  bool sanitize_input = true;
  SanitizeOptions sanitize;
};

/// Everything about one community a membership query wants alongside
/// the label: member count, collapsed internal weight, and volume.
struct CommunityStats {
  std::int64_t size = 0;
  Weight internal_weight = 0;  // edge weight with both endpoints inside
  Weight volume = 0;           // sum of member volumes (2*internal + cut)
};

/// Snapshot payload version for save_state/load_state.  Version 2:
/// dynamic states live in the same `checkpoint-NNNNNN.ckpt` rotation as
/// agglomeration checkpoints (which are version 1), so the version
/// bump is also what turns "pointed a dynamic resume at an
/// agglomeration checkpoint dir" into a clean format error.  Version 3
/// adds the clustering quality scalars (modularity / coverage), so a
/// restart — or a follower promoted to writer — reports the same
/// QUALITY line without needing a WAL record to replay.
inline constexpr std::uint32_t kDynStateFormatVersion = 3;

/// Fingerprint of the configuration that shapes dynamic results; a
/// saved state is refused under a different configuration.  Refresh
/// cadence and budgets are excluded (operational knobs, legitimately
/// changeable across restarts).
[[nodiscard]] inline std::uint64_t dynamic_config_fingerprint(const DynamicOptions& o) {
  std::uint64_t h = options_fingerprint(o.detect.agglomeration);
  h = detail::fold_detect_salt(h, o.detect.scorer, o.detect.resolution_gamma);
  h = mix64(h ^ static_cast<std::uint64_t>(o.warm_max_levels));
  h = mix64(h ^ static_cast<std::uint64_t>(o.halo_hops));
  if (o.halo_hops < 0) {
    h = mix64(h ^ std::bit_cast<std::uint64_t>(o.halo_cut_threshold));
    h = mix64(h ^ static_cast<std::uint64_t>(o.halo_max_hops));
  }
  return h;
}

template <VertexId V>
class DynamicCommunities {
 public:
  /// Takes ownership of the base graph and runs the initial detection.
  explicit DynamicCommunities(CommunityGraph<V> base, DynamicOptions opts = {})
      : base_(std::move(base)), opts_(std::move(opts)) {
    clustering_ = detect_communities(base_, opts_.detect);
    clustering_.compact_labels();
    stats_.halo_hops = opts_.halo_hops;
  }

  /// Adopts an existing clustering over `base` (e.g. loaded from a
  /// prior run) instead of recomputing it.  Throws kInvalidArgument
  /// when the label vector does not cover the graph.
  DynamicCommunities(CommunityGraph<V> base, Clustering<V> existing,
                     DynamicOptions opts = {})
      : base_(std::move(base)), opts_(std::move(opts)), clustering_(std::move(existing)) {
    if (static_cast<std::int64_t>(clustering_.community.size()) !=
        static_cast<std::int64_t>(base_.nv))
      throw_error(ErrorCode::kInvalidArgument, Phase::kDynamic,
                  "adopted clustering covers " + std::to_string(clustering_.community.size()) +
                      " vertices, graph has " + std::to_string(base_.nv));
    clustering_.compact_labels();
    stats_.halo_hops = opts_.halo_hops;
  }

  /// Applies one batch transactionally.  On success the returned row
  /// describes the committed update; on failure the prior graph and
  /// clustering are fully intact and the structured error says why.
  Expected<obs::DynamicBatchRow> apply_batch(const DeltaBatch<V>& batch) {
    obs::ScopedSpan span("dyn.batch");
    span.attr("deltas", batch.size());
    obs::DynamicBatchRow row;
    row.batch = stats_.batches;
    row.deltas = batch.size();
    try {
      BudgetTracker tracker(opts_.batch_budget);

      DeltaBatch<V> cleaned = batch;
      if (opts_.sanitize_input) {
        auto rep = sanitize_deltas(cleaned, base_.nv, opts_.sanitize);
        if (!rep.has_value()) {
          ++stats_.rolled_back;
          return Unexpected(rep.error());
        }
      }
      const auto normalized = normalize_deltas(cleaned);

      WallTimer apply_timer;
      COMMDET_FAULT_POINT(fault::kDynApply, Phase::kDynamic);
      DeltaApplied<V> applied =
          apply_delta(base_, std::span<const EdgeDelta<V>>(normalized));
      row.apply_seconds = apply_timer.seconds();
      row.effective = applied.report.effective;
      row.touched = static_cast<std::int64_t>(applied.touched.size());
      span.attr("effective", row.effective);

      if (applied.touched.empty()) {
        // Nothing changed: keep the current clustering bit-for-bit
        // (modulo a cadence-due refresh — no-op batches still count).
        maybe_refresh(row, tracker);
        fill_quality(row);
        commit_stats(row);
        return row;
      }

      if (auto err = tracker.check_deadline(std::numeric_limits<int>::max())) {
        ++stats_.rolled_back;
        return Unexpected(*err);
      }

      COMMDET_FAULT_POINT(fault::kDynRecompute, Phase::kDynamic);
      std::vector<std::uint8_t> dirty;
      if (opts_.halo_hops < 0) {
        AdaptiveHalo halo = expand_halo_adaptive(
            applied.graph, std::span<const V>(applied.touched),
            opts_.halo_cut_threshold, opts_.halo_max_hops);
        dirty = std::move(halo.dirty);
        row.halo_hops_used = halo.hops;
      } else {
        dirty = expand_halo(applied.graph, std::span<const V>(applied.touched),
                            opts_.halo_hops);
        row.halo_hops_used = opts_.halo_hops;
      }
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
      if (opts_.batch_budget.limited()) {
        // Hand the remainder of the batch budget to the driver; it
        // degrades gracefully instead of discarding the batch.
        detect.agglomeration.budget = opts_.batch_budget;
        if (opts_.batch_budget.max_seconds > 0.0)
          detect.agglomeration.budget.max_seconds =
              opts_.batch_budget.max_seconds - tracker.elapsed_seconds();
      }
      WallTimer recompute_timer;
      Clustering<V> next = seeded_agglomerate(
          applied.graph, std::span<const V>(seeds), num_seeds, detect);

      row.kept_prior =
          detail::keep_prior_if_better(applied.graph, clustering_, next, opts_.detect.scorer);
      row.recompute_seconds = recompute_timer.seconds();

      // Commit point: everything after this must not throw.
      base_ = std::move(applied.graph);
      clustering_ = std::move(next);
      clustering_.compact_labels();
      community_cache_.clear();

      maybe_refresh(row, tracker);
      fill_quality(row);
      commit_stats(row);
      return row;
    } catch (const std::exception& e) {
      ++stats_.rolled_back;
      span.set_error();
      return Unexpected(error_from_exception(e, Phase::kDynamic));
    }
  }

  /// Full from-scratch refresh of the clustering over the current base
  /// graph (the quality-triggered escape hatch when incremental drift
  /// accumulates).
  const Clustering<V>& recompute() {
    clustering_ = detect_communities(base_, opts_.detect);
    clustering_.compact_labels();
    community_cache_.clear();
    // The refreshed score is the new drift reference, even when it is
    // lower than the old one: a genuinely degraded graph must not
    // trigger a refresh on every subsequent batch.
    reference_modularity_ = clustering_.final_modularity;
    batches_since_refresh_ = 0;
    return clustering_;
  }

  [[nodiscard]] const CommunityGraph<V>& graph() const noexcept { return base_; }
  [[nodiscard]] const Clustering<V>& clustering() const noexcept { return clustering_; }
  [[nodiscard]] const DynamicOptions& options() const noexcept { return opts_; }
  [[nodiscard]] const obs::DynamicRunStats& stats() const noexcept { return stats_; }

  [[nodiscard]] std::int64_t num_communities() const noexcept {
    return clustering_.num_communities;
  }

  /// Community label of vertex v.
  [[nodiscard]] V community_of(V v) const {
    return clustering_.community[static_cast<std::size_t>(v)];
  }

  /// Size / internal weight / volume of community c (cached; the cache
  /// is rebuilt lazily after each committed batch).
  [[nodiscard]] const CommunityStats& community_stats(V c) const {
    if (community_cache_.empty()) build_community_cache();
    return community_cache_[static_cast<std::size_t>(c)];
  }

  /// All communities' stats in label order (same lazy cache).  The
  /// streaming service snapshots this vector at epoch-publish time.
  [[nodiscard]] const std::vector<CommunityStats>& community_stats_all() const {
    if (community_cache_.empty()) build_community_cache();
    return community_cache_;
  }

  /// Committed-batch count — the epoch number the streaming service
  /// publishes and the WAL sequences against.
  [[nodiscard]] std::int64_t epoch() const noexcept { return stats_.batches; }

  /// Generation load_state restored from, -1 for a fresh instance.
  [[nodiscard]] std::int64_t loaded_generation() const noexcept {
    return loaded_generation_;
  }

  /// CRC32 over the i64-widened label array: the membership identity
  /// carried by WAL commit records and checked on replay.  Label-width
  /// independent, like the on-disk array encoding.
  [[nodiscard]] static std::uint32_t labels_checksum(std::span<const V> labels) noexcept {
    std::uint32_t crc = 0;
    for (const V l : labels) {
      const auto wide = static_cast<std::int64_t>(l);
      crc = crc32_update(crc, &wide, sizeof wide);
    }
    return crc;
  }

  /// Persists graph + clustering + aggregate counters as the next
  /// checkpoint generation in `dir` (created on demand), pruning
  /// generations beyond `keep_generations` only after the new one is
  /// durably committed — the robust/checkpoint.hpp rotation contract,
  /// so a torn latest generation falls back to the previous one on
  /// load.  Returns the generation written.
  std::int64_t save_state(const std::string& dir, int keep_generations = 2) const {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
      throw_error(ErrorCode::kIoOpen, Phase::kDynamic,
                  "cannot create state directory: " + dir + " (" + ec.message() + ")");
    auto existing = list_checkpoints(dir);
    const std::int64_t generation = existing.empty() ? 1 : existing.front().first + 1;
    write_state_file(checkpoint_path(dir, generation));
    const int keep = keep_generations < 1 ? 1 : keep_generations;
    for (std::size_t i = static_cast<std::size_t>(keep) - 1; i < existing.size(); ++i)
      std::filesystem::remove(existing[i].second, ec);  // best-effort prune
    return generation;
  }

  /// Serializes into one explicit file, crash-atomically
  /// (io/snapshot.hpp container).  Building block of save_state.
  void write_state_file(const std::string& path) const {
    SnapshotWriter w(path, kDynStateFormatVersion);
    w.write_u64(dynamic_config_fingerprint(opts_));
    w.write_i64(static_cast<std::int64_t>(base_.nv));
    w.write_i64_array(base_.bucket_begin);
    w.write_i64_array(base_.bucket_end);
    w.write_i64_array(base_.self_weight);
    w.write_i64_array(base_.volume);
    w.write_i64_array(base_.efirst);
    w.write_i64_array(base_.esecond);
    w.write_i64_array(base_.eweight);
    w.write_i64(base_.total_weight);
    w.write_i64_array(clustering_.community);
    w.write_i64(clustering_.num_communities);
    w.write_f64(clustering_.final_modularity);
    w.write_f64(clustering_.final_coverage);
    w.write_i64(stats_.batches);
    w.write_i64(stats_.updates_applied);
    w.write_i64(stats_.updates_effective);
    w.write_i64(stats_.rolled_back);
    w.write_i64(stats_.kept_prior);
    w.write_i64(stats_.full_refreshes);
    w.write_f64(stats_.apply_seconds);
    w.write_f64(stats_.recompute_seconds);
    w.commit();
  }

  /// Restores the newest *valid* saved generation in `dir`: candidates
  /// are tried newest-first and corrupt ones (torn, truncated,
  /// bit-flipped, wrong version) are skipped, so one bad generation
  /// degrades to the one before it rather than to data loss.  A
  /// configuration mismatch is NOT corruption: it refuses immediately
  /// (kCheckpointMismatch) instead of silently resuming an older
  /// generation under a different metric or halo policy.
  [[nodiscard]] static Expected<DynamicCommunities<V>> load_state(const std::string& dir,
                                                                  DynamicOptions opts = {}) {
    const auto candidates = list_checkpoints(dir);
    if (candidates.empty())
      return Unexpected(Error{ErrorCode::kIoOpen, Phase::kDynamic,
                              "no dynamic state found in " + dir});
    for (const auto& [generation, path] : candidates) {
      auto loaded = load_state_file(path, opts);
      if (loaded.has_value()) {
        loaded.value().loaded_generation_ = generation;
        return loaded;
      }
      if (loaded.error().code == ErrorCode::kCheckpointMismatch) return loaded;
      // Torn/corrupt generation: fall back to the previous one.
    }
    return Unexpected(Error{ErrorCode::kIoFormat, Phase::kDynamic,
                            "no valid dynamic state generation in " + dir});
  }

  /// Restores one explicit state file.  Refused (kCheckpointMismatch)
  /// when `opts` differs from the configuration the state was saved
  /// under, so a resumed stream cannot silently continue with a
  /// different metric or halo radius.
  [[nodiscard]] static Expected<DynamicCommunities<V>> load_state_file(
      const std::string& path, DynamicOptions opts = {}) {
    try {
      SnapshotReader r(path, kDynStateFormatVersion);
      const std::uint64_t fingerprint = r.read_u64();
      if (fingerprint != dynamic_config_fingerprint(opts))
        return Unexpected(Error{ErrorCode::kCheckpointMismatch, Phase::kDynamic,
                                "dynamic state at " + path +
                                    " was saved under a different configuration"});
      DynamicCommunities<V> out(std::move(opts));
      out.base_.nv = static_cast<V>(r.read_i64());
      out.base_.bucket_begin = r.template read_i64_array<EdgeId>();
      out.base_.bucket_end = r.template read_i64_array<EdgeId>();
      out.base_.self_weight = r.template read_i64_array<Weight>();
      out.base_.volume = r.template read_i64_array<Weight>();
      out.base_.efirst = r.template read_i64_array<V, BigVector<V>>();
      out.base_.esecond = r.template read_i64_array<V, BigVector<V>>();
      out.base_.eweight = r.template read_i64_array<Weight, BigVector<Weight>>();
      out.base_.total_weight = r.read_i64();
      out.clustering_.community = r.template read_i64_array<V>();
      out.clustering_.num_communities = r.read_i64();
      out.clustering_.final_modularity = r.read_f64();
      out.clustering_.final_coverage = r.read_f64();
      out.stats_.batches = r.read_i64();
      out.stats_.updates_applied = r.read_i64();
      out.stats_.updates_effective = r.read_i64();
      out.stats_.rolled_back = r.read_i64();
      out.stats_.kept_prior = r.read_i64();
      out.stats_.full_refreshes = r.read_i64();
      out.stats_.apply_seconds = r.read_f64();
      out.stats_.recompute_seconds = r.read_f64();
      r.finish();
      return out;
    } catch (const std::exception& e) {
      return Unexpected(error_from_exception(e, Phase::kDynamic));
    }
  }

  /// One label change a committed batch made relative to the previous
  /// epoch, in the i64-widened on-disk encoding.
  struct LabelChange {
    std::int64_t vertex = 0;
    std::int64_t label = 0;
  };

  /// Replays one previously committed batch from the streaming
  /// service's write-ahead log WITHOUT re-running re-agglomeration.
  /// Parallel scoring accumulates floating-point atomics in
  /// nondeterministic order, so re-running it cannot promise the same
  /// labels; the graph mutation (sanitize + normalize + apply_delta) is
  /// deterministic by construction, and `changes` carries the exact
  /// label diff the original commit produced.  `labels_crc`
  /// (labels_checksum of the committed epoch's full label array) proves
  /// the restored membership is bit-for-bit the committed one.
  /// Transactional like apply_batch: any failure — including a checksum
  /// mismatch — leaves graph and clustering untouched.
  Expected<obs::DynamicBatchRow> replay_batch(const DeltaBatch<V>& batch,
                                              std::span<const LabelChange> changes,
                                              std::int64_t num_communities,
                                              double modularity, double coverage,
                                              std::uint32_t labels_crc) {
    obs::DynamicBatchRow row;
    row.batch = stats_.batches;
    row.deltas = batch.size();
    try {
      DeltaBatch<V> cleaned = batch;
      if (opts_.sanitize_input) {
        auto rep = sanitize_deltas(cleaned, base_.nv, opts_.sanitize);
        if (!rep.has_value()) return Unexpected(rep.error());
      }
      const auto normalized = normalize_deltas(cleaned);
      WallTimer apply_timer;
      DeltaApplied<V> applied =
          apply_delta(base_, std::span<const EdgeDelta<V>>(normalized));
      row.apply_seconds = apply_timer.seconds();
      row.effective = applied.report.effective;
      row.touched = static_cast<std::int64_t>(applied.touched.size());

      std::vector<V> labels = clustering_.community;
      for (const LabelChange& ch : changes) {
        if (ch.vertex < 0 || ch.vertex >= static_cast<std::int64_t>(labels.size()) ||
            ch.label < 0 || !fits_vertex_id<V>(ch.label))
          throw_error(ErrorCode::kIoFormat, Phase::kDynamic,
                      "WAL label change out of range: vertex " +
                          std::to_string(ch.vertex) + " -> " + std::to_string(ch.label));
        labels[static_cast<std::size_t>(ch.vertex)] = static_cast<V>(ch.label);
      }
      if (labels_checksum(std::span<const V>(labels)) != labels_crc)
        throw_error(ErrorCode::kCheckpointMismatch, Phase::kDynamic,
                    "replayed membership does not match the committed epoch checksum");

      // Commit point: nothing below throws.
      base_ = std::move(applied.graph);
      clustering_.community = std::move(labels);
      clustering_.num_communities = num_communities;
      clustering_.final_modularity = modularity;
      clustering_.final_coverage = coverage;
      community_cache_.clear();

      row.modularity = modularity;
      row.coverage = coverage;
      row.num_communities = num_communities;
      row.termination = "replayed";
      commit_stats(row);
      return row;
    } catch (const std::exception& e) {
      return Unexpected(error_from_exception(e, Phase::kDynamic));
    }
  }

 private:
  /// Bare constructor for load_state: adopts nothing, fields are filled
  /// by the loader.
  explicit DynamicCommunities(DynamicOptions opts) : opts_(std::move(opts)) {
    stats_.halo_hops = opts_.halo_hops;
  }

  /// Runs the quality/cadence-triggered full refresh when due.  Sits
  /// after the commit point, so it must not throw and must never turn a
  /// committed batch into a failure: a refresh that dies is swallowed
  /// (the trigger re-fires next batch), and a batch whose budget is
  /// already spent defers instead of blowing the deadline further.
  void maybe_refresh(obs::DynamicBatchRow& row, BudgetTracker& tracker) noexcept {
    try {
      ++batches_since_refresh_;
      const bool modularity_scorer =
          opts_.detect.scorer == ScorerKind::kModularity ||
          opts_.detect.scorer == ScorerKind::kResolutionModularity;
      if (modularity_scorer)
        reference_modularity_ =
            std::max(reference_modularity_, clustering_.final_modularity);
      bool due = opts_.refresh_every > 0 && batches_since_refresh_ >= opts_.refresh_every;
      if (!due && opts_.refresh_margin > 0.0 && modularity_scorer)
        due = reference_modularity_ - clustering_.final_modularity > opts_.refresh_margin;
      if (!due) return;
      if (opts_.batch_budget.limited() &&
          tracker.check_deadline(std::numeric_limits<int>::max()).has_value())
        return;
      WallTimer timer;
      if (opts_.refresh_plan.algorithm() == AlgorithmKind::kAgglomerative) {
        recompute();
      } else {
        // Plan-selected refresh backend (e.g. lp-sync for cheap ticks).
        clustering_ = detect_communities(base_, opts_.refresh_plan, opts_.detect);
        clustering_.compact_labels();
        community_cache_.clear();
        reference_modularity_ = clustering_.final_modularity;
        batches_since_refresh_ = 0;
      }
      row.refreshed = true;
      row.refresh_seconds = timer.seconds();
      row.refresh_algorithm = std::string(opts_.refresh_plan.name());
      ++stats_.full_refreshes;
      if (auto* c = obs::counter("dyn.refreshes")) c->add(1);
      if (auto* c = obs::counter("dyn.refresh." + opts_.refresh_plan.metric_token()))
        c->add(1);
    } catch (...) {
      // Committed batch stands; the refresh retries on a later batch.
    }
  }

  void fill_quality(obs::DynamicBatchRow& row) const {
    row.modularity = clustering_.final_modularity;
    row.coverage = clustering_.final_coverage;
    row.num_communities = clustering_.num_communities;
    row.termination = std::string(to_string(clustering_.reason));
    row.degraded = is_degraded(clustering_.reason);
  }

  void commit_stats(const obs::DynamicBatchRow& row) {
    ++stats_.batches;
    stats_.kept_prior += row.kept_prior ? 1 : 0;
    stats_.updates_applied += row.deltas;
    stats_.updates_effective += row.effective;
    stats_.apply_seconds += row.apply_seconds;
    stats_.recompute_seconds += row.recompute_seconds;
    stats_.batch_rows.push_back(row);
    if (auto* c = obs::counter("dyn.batches")) c->add(1);
    if (auto* c = obs::counter("dyn.updates")) c->add(row.deltas);
    if (auto* c = obs::counter("dyn.updates_effective")) c->add(row.effective);
    if (auto* c = obs::counter("dyn.unseated")) c->add(row.dirty);
  }

  void build_community_cache() const {
    const auto k = static_cast<std::size_t>(clustering_.num_communities);
    community_cache_.assign(k, CommunityStats{});
    const auto nv = static_cast<std::int64_t>(base_.nv);
    for (std::int64_t v = 0; v < nv; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      const auto c = static_cast<std::size_t>(clustering_.community[vi]);
      auto& s = community_cache_[c];
      ++s.size;
      s.internal_weight += base_.self_weight[vi];
      s.volume += base_.volume[vi];
    }
    const EdgeId ne = base_.num_edges();
    for (EdgeId e = 0; e < ne; ++e) {
      const auto i = static_cast<std::size_t>(e);
      const auto cf = clustering_.community[static_cast<std::size_t>(base_.efirst[i])];
      const auto cs = clustering_.community[static_cast<std::size_t>(base_.esecond[i])];
      if (cf == cs)
        community_cache_[static_cast<std::size_t>(cf)].internal_weight += base_.eweight[i];
    }
  }

  CommunityGraph<V> base_;
  DynamicOptions opts_;
  Clustering<V> clustering_;
  obs::DynamicRunStats stats_;
  mutable std::vector<CommunityStats> community_cache_;
  double reference_modularity_ = -1.0;  // best score since the last refresh
  std::int64_t batches_since_refresh_ = 0;
  std::int64_t loaded_generation_ = -1;
};

}  // namespace commdet
