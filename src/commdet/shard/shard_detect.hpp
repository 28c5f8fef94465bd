// The agglomerative driver over a ShardedGraph: the same level loop,
// termination criteria, budget enforcement, and graceful-degradation
// containment as core/agglomerate.hpp, with each phase running
// shard-locally (score/match lease one block at a time; contraction
// merges into a re-sharded coarser graph).
//
// Quality contract: with the unsharded driver configured for the same
// kernels this path mirrors (matcher = kEdgeSweep, contractor =
// kBucketSort), the per-level labelings — and hence the final
// clustering — are bit-identical for EVERY shard count, spill on or
// off.  The matching's total offer order and the contraction's
// canonical per-bucket sort leave no degree of freedom to the
// partitioning.
//
// Not supported here (throws std::invalid_argument up front rather than
// silently diverging): max_community_size (needs the score-zeroing
// pass, which would require materialized per-edge scores) and
// checkpoint/resume (the checkpoint container holds an unsharded
// graph).  Both remain available on the unsharded plan.
#pragma once

#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "commdet/core/agglomerate.hpp"
#include "commdet/core/clustering.hpp"
#include "commdet/core/options.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/obs/probes.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/robust/budget.hpp"
#include "commdet/robust/checkpoint.hpp"
#include "commdet/robust/error.hpp"
#include "commdet/robust/fault_injection.hpp"
#include "commdet/shard/shard_contract.hpp"
#include "commdet/shard/shard_match.hpp"
#include "commdet/shard/shard_score.hpp"
#include "commdet/util/timer.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

/// Runs agglomerative community detection on a sharded graph (consumed).
template <VertexId V, EdgeScorer S>
[[nodiscard]] Clustering<V> sharded_agglomerate(ShardedGraph<V> sg, const S& scorer,
                                                const AgglomerationOptions& opts = {}) {
  if (opts.max_community_size > 0)
    throw std::invalid_argument(
        "sharded agglomeration does not support max_community_size; use the "
        "unsharded plan for size-capped runs");
  if (opts.checkpoint.enabled())
    throw std::invalid_argument(
        "sharded agglomeration does not support checkpoint/resume; use the "
        "unsharded plan for checkpointed runs");

  WallTimer total_timer;
  obs::ScopedSpan run_span("agglomerate");
  run_span.attr("nv", static_cast<std::int64_t>(sg.nv));
  run_span.attr("ne", static_cast<std::int64_t>(sg.num_edges()));
  run_span.attr("shards", static_cast<std::int64_t>(sg.num_shards()));
  run_span.attr("spill", sg.spill.enabled ? 1 : 0);
  obs::Gauge* rss_gauge = obs::gauge("agglomerate.rss_hwm_bytes");

  Clustering<V> result;
  const auto original_nv = static_cast<std::int64_t>(sg.nv);
  result.community.resize(static_cast<std::size_t>(original_nv));
  std::iota(result.community.begin(), result.community.end(), V{0});
  detail::LazyCommunityMap<V> community_map(result.community, original_nv);
  result.num_communities = static_cast<std::int64_t>(sg.nv);
  result.final_modularity = detail::partition_modularity(sg);
  result.final_coverage = detail::partition_coverage(sg);

  BudgetTracker budget(opts.budget, 0.0);
  const bool budgeted = opts.budget.limited();
  int completed_levels = 0;
  const auto degrade = [&](Error e) {
    result.reason = detail::termination_for(e.code);
    result.error = std::move(e);
  };

  // The budget's memory check sees what is actually in memory: with
  // spill enabled the released blocks don't count, which is the entire
  // point of the out-of-core mode.
  const auto check_stop = [&](bool check_memory) -> std::optional<Error> {
    if (interrupt_requested())
      return Error{ErrorCode::kInterrupted, Phase::kDriver,
                   "interrupt requested (SIGINT/SIGTERM)"};
    if (!budgeted) return std::nullopt;
    if (auto violation = budget.check_deadline(completed_levels)) return violation;
    if (check_memory)
      if (auto violation = budget.check_memory(sg.resident_bytes(), completed_levels))
        return violation;
    return std::nullopt;
  };

  for (int level = 1;; ++level) {
    if (opts.max_levels > 0 && level > opts.max_levels) {
      result.reason = TerminationReason::kLevelCap;
      break;
    }
    if (auto violation = check_stop(/*check_memory=*/true)) {
      degrade(std::move(*violation));
      break;
    }

    LevelStats stats;
    stats.level = level;
    stats.nv_before = static_cast<std::int64_t>(sg.nv);
    stats.ne_before = sg.num_edges();

    obs::ScopedSpan level_span("level");
    level_span.attr("level", level);
    level_span.attr("nv_before", stats.nv_before);
    level_span.attr("ne_before", static_cast<std::int64_t>(stats.ne_before));

    Phase phase = Phase::kScore;
    bool contained = false;
    try {
      // Step 1: score (summary only; no per-edge array is materialized).
      ScoreSummary summary;
      {
        ScopedTimer t(stats.score_seconds);
        obs::ScopedSpan span("score");
        summary = sharded_score_summary(sg, scorer);
        span.attr("positive_edges", static_cast<std::int64_t>(summary.positive_edges));
        span.attr("max_score", summary.max_score);
      }
      stats.positive_edges = summary.positive_edges;
      stats.max_score = summary.max_score;
      if (summary.positive_edges == 0) {
        result.reason = TerminationReason::kLocalMaximum;
        break;
      }
      if (auto violation = check_stop(/*check_memory=*/false)) {
        degrade(std::move(*violation));
        break;
      }

      // Step 2: match (shard-local sweeps, boundary reconciliation).
      phase = Phase::kMatch;
      Matching<V> matching;
      {
        ScopedTimer t(stats.match_seconds);
        obs::ScopedSpan span("match");
        COMMDET_FAULT_POINT(fault::kMatch, Phase::kMatch);
        BidStats work;
        matching = sharded_match(sg, scorer, &work);
        span.attr("pairs_matched", matching.num_pairs);
        span.attr("sweeps", matching.sweeps);
        span.attr("edges_visited", work.visited);
        span.attr("edges_bid", work.bids);
        span.attr("bid_locks", work.locks);
      }
      stats.pairs_matched = matching.num_pairs;
      stats.match_sweeps = matching.sweeps;
      if (matching.num_pairs == 0) {
        result.reason = TerminationReason::kNoMatches;
        break;
      }
      if (auto violation = check_stop(/*check_memory=*/false)) {
        degrade(std::move(*violation));
        break;
      }

      // Step 3: contract into a re-sharded coarser graph.
      phase = Phase::kContract;
      std::vector<V> new_label;
      {
        ScopedTimer t(stats.contract_seconds);
        obs::ScopedSpan span("contract");
        COMMDET_FAULT_POINT(fault::kContract, Phase::kContract);
        auto contracted = contract_sharded(sg, matching);
        sg = std::move(contracted.graph);
        new_label = std::move(contracted.new_label);
        span.attr("nv_after", static_cast<std::int64_t>(sg.nv));
        span.attr("ne_after", static_cast<std::int64_t>(sg.num_edges()));
        span.attr("shards", static_cast<std::int64_t>(sg.num_shards()));
      }

      phase = Phase::kDriver;
      community_map.compose(std::span<const V>(new_label), static_cast<std::int64_t>(sg.nv));
      if (opts.track_hierarchy) result.hierarchy.push_back(new_label);

      stats.nv_after = static_cast<std::int64_t>(sg.nv);
      stats.ne_after = sg.num_edges();
      stats.coverage = detail::partition_coverage(sg);
      stats.modularity = detail::partition_modularity(sg);

      if (level_span.active() || rss_gauge != nullptr) {
        const std::int64_t rss = obs::rss_high_water_bytes();
        if (rss_gauge != nullptr) rss_gauge->record(rss);
        level_span.attr("rss_hwm_bytes", rss);
      }
      level_span.attr("nv_after", stats.nv_after);
      level_span.attr("coverage", stats.coverage);
      level_span.attr("modularity", stats.modularity);
    } catch (const std::exception& e) {
      degrade(error_from_exception(e, phase));
      contained = true;
    } catch (...) {
      degrade(Error{ErrorCode::kInternal, phase, "non-standard exception"});
      contained = true;
    }
    if (contained) {
      // Same containment contract as the unsharded driver: score and
      // match never mutate the graph, and a contraction failure throws
      // before `sg` is replaced, so the maps and graph stay consistent
      // and `result` is the valid best-so-far.  A spill READ failure
      // surfaces here too (ensure_resident throws), never as torn data
      // — the snapshot reader validates before any state is adopted.
      result.failed_level = stats;
      level_span.set_error();
      break;
    }

    result.levels.push_back(stats);
    ++completed_levels;
    result.num_communities = static_cast<std::int64_t>(sg.nv);
    result.final_coverage = stats.coverage;
    result.final_modularity = stats.modularity;

    if (stats.coverage >= opts.min_coverage) {
      result.reason = TerminationReason::kCoverage;
      break;
    }
    if (result.num_communities <= opts.min_communities) {
      result.reason = TerminationReason::kMinCommunities;
      break;
    }
    if (budgeted) {
      if (auto violation = budget.note_level(stats.nv_before, stats.nv_after)) {
        degrade(std::move(*violation));
        break;
      }
    }
  }
  community_map.flush();

  result.total_seconds = total_timer.seconds();
  run_span.attr("levels", static_cast<std::int64_t>(result.levels.size()));
  run_span.attr("termination", to_string(result.reason));
  if (run_span.active()) run_span.attr("rss_hwm_bytes", obs::rss_high_water_bytes());
  return result;
}

}  // namespace commdet
