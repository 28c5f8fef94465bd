// The agglomerative driver over a ShardedGraph.  The level loop — stop
// checks, termination tests, bookkeeping and containment — is
// core/agglomerate.hpp's detail::LevelLoop, shared with the unsharded
// driver; this file supplies only the three shard-local phase calls
// (score and match lease one block at a time; contraction merges into
// a re-sharded coarser graph), the bid-work span attributes, and the
// up-front rejections below.
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
#include <stdexcept>
#include <utility>
#include <vector>

#include "commdet/core/agglomerate.hpp"
#include "commdet/core/clustering.hpp"
#include "commdet/core/options.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/robust/fault_injection.hpp"
#include "commdet/shard/shard_contract.hpp"
#include "commdet/shard/shard_match.hpp"
#include "commdet/shard/shard_score.hpp"
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

  detail::LevelLoop<V> loop(sg, opts);
  loop.span().attr("shards", static_cast<std::int64_t>(sg.num_shards()));
  loop.span().attr("spill", sg.spill.enabled ? 1 : 0);
  loop.run(
      [&]() -> const ShardedGraph<V>& { return sg; }, /*start_level=*/1,
      // With spill enabled the released blocks don't count, which is
      // the entire point of the out-of-core mode.
      [&] { return static_cast<std::int64_t>(sg.resident_bytes()); },
      // Summary only; no per-edge score array is materialized.
      [&](obs::ScopedSpan&) { return sharded_score_summary(sg, scorer); },
      [&](obs::ScopedSpan& span) {
        COMMDET_FAULT_POINT(fault::kMatch, Phase::kMatch);
        BidStats work;
        Matching<V> matching = sharded_match(sg, scorer, &work);
        span.attr("edges_visited", work.visited);
        span.attr("edges_bid", work.bids);
        span.attr("bid_locks", work.locks);
        return matching;
      },
      // A spill READ failure surfaces as a contained error too
      // (ensure_resident throws before any state is adopted).
      [&](const Matching<V>& matching, obs::ScopedSpan& span) {
        COMMDET_FAULT_POINT(fault::kContract, Phase::kContract);
        auto contracted = contract_sharded(sg, matching);
        sg = std::move(contracted.graph);
        span.attr("shards", static_cast<std::int64_t>(sg.num_shards()));
        span.attr("fresh_bytes", contracted.fresh_bytes);
        return std::move(contracted.new_label);
      },
      [](int) {});
  return loop.finish();
}

}  // namespace commdet
