// Result types of the agglomerative driver: the final community
// assignment plus per-level telemetry (phase timings, sizes, quality
// trajectory).  The phase breakdown backs the paper's contraction-cost
// claim ("requires from 40% to 80% of the execution time", Sec. IV-C).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "commdet/core/options.hpp"
#include "commdet/robust/error.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/prefix_sum.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

/// Remaps non-negative labels onto the dense range [0, k), preserving
/// the relative order of surviving label values, and returns k.  The
/// remap is stable: applying it to an already-dense labeling is the
/// identity, so repeated incremental rounds (which unseat a few
/// vertices into fresh high labels and then re-compact) cannot grow or
/// churn the label space beyond the communities that actually changed.
template <VertexId V>
std::int64_t compact_labels(std::vector<V>& labels) {
  const auto n = static_cast<std::int64_t>(labels.size());
  if (n == 0) return 0;
  const V max_label = parallel_max(n, V{-1}, [&](std::int64_t i) {
    const V l = labels[static_cast<std::size_t>(i)];
    assert(l >= 0 && "compact_labels requires non-negative labels");
    return l;
  });
  std::vector<V> newid(static_cast<std::size_t>(max_label) + 1, 0);
  parallel_for(n, [&](std::int64_t i) {
    // Every writer stores the same 1: relaxed atomic stores suffice.
    std::atomic_ref<V>(newid[static_cast<std::size_t>(labels[static_cast<std::size_t>(i)])])
        .store(1, std::memory_order_relaxed);
  });
  const V k = exclusive_prefix_sum(std::span<V>(newid));
  parallel_for(n, [&](std::int64_t i) {
    auto& l = labels[static_cast<std::size_t>(i)];
    l = newid[static_cast<std::size_t>(l)];
  });
  return static_cast<std::int64_t>(k);
}

/// Telemetry for one score/match/contract iteration.
struct LevelStats {
  int level = 0;
  std::int64_t nv_before = 0;
  EdgeId ne_before = 0;
  EdgeId positive_edges = 0;
  Score max_score = 0.0;
  std::int64_t pairs_matched = 0;
  int match_sweeps = 0;
  std::int64_t nv_after = 0;
  EdgeId ne_after = 0;
  double coverage = 0.0;    // after contraction
  double modularity = 0.0;  // after contraction
  double score_seconds = 0.0;
  double match_seconds = 0.0;
  double contract_seconds = 0.0;
};

/// Which backend produced a Clustering, surfaced additively in the run
/// report's "result.algorithm" object so downstream consumers can tell
/// a cheap label-propagation refresh from a full agglomeration without
/// branching on schema shape.  `iterations` counts the backend's
/// natural unit (agglomeration/Louvain levels, CDLP sweeps).
struct AlgorithmProvenance {
  std::string name = "agglomerative";
  int iterations = 0;
  bool converged = true;
  std::string refine;  // "", "flat", "vcycle", "local-move"
};

/// Checkpoint/resume provenance of one driver invocation, surfaced in
/// the run report so supervisors can tell a fresh run from a resumed
/// one and find the newest generation to resume from.
struct CheckpointProvenance {
  std::string directory;              // CheckpointOptions::directory
  std::int64_t last_generation = -1;  // newest generation this run wrote
  int checkpoints_written = 0;        // successful snapshot commits
  int checkpoint_failures = 0;        // contained write failures (run kept going)
  std::string resumed_from;           // loaded generation's path; "" = fresh run
  std::int64_t resumed_generation = -1;
  int resumed_level = 0;              // first level executed by this invocation
  double resumed_elapsed_seconds = 0.0;  // work time inherited from prior runs
};

template <VertexId V>
struct Clustering {
  /// Community of each original vertex; labels dense in
  /// [0, num_communities).
  std::vector<V> community;
  std::int64_t num_communities = 0;
  TerminationReason reason = TerminationReason::kLocalMaximum;

  /// Set when the run degraded (reason kContainedError or a budget
  /// reason): the structured record of what stopped it.  The clustering
  /// itself is still the valid best-so-far result.
  std::optional<Error> error;

  /// Present when checkpointing was enabled or the run was resumed.
  std::optional<CheckpointProvenance> checkpoint;

  /// Which backend produced this result (DetectPlan dispatch and the
  /// backends themselves fill it; absent from results built by hand).
  std::optional<AlgorithmProvenance> algorithm;

  /// Partial stats of the level a contained failure interrupted: phase
  /// times accumulated up to the throw (ScopedTimer adds on unwinding),
  /// sizes and counts of the phases that finished.  The level itself is
  /// not in `levels` — it never completed.
  std::optional<LevelStats> failed_level;

  double final_coverage = 0.0;
  double final_modularity = 0.0;
  double total_seconds = 0.0;
  std::vector<LevelStats> levels;

  /// When AgglomerationOptions::track_hierarchy is set: hierarchy[k] maps
  /// level-k community ids to level-(k+1) ids (level 0 = original
  /// vertices), i.e. the contraction dendrogram.  Use labels_at_level()
  /// to cut it.
  std::vector<std::vector<V>> hierarchy;

  [[nodiscard]] int num_levels() const noexcept { return static_cast<int>(levels.size()); }

  /// Re-densifies `community` in place (order-preserving, stable — see
  /// the free compact_labels) and refreshes num_communities.
  void compact_labels() { num_communities = ::commdet::compact_labels(community); }

  /// Community of every original vertex after `level` contractions
  /// (level 0 = all singletons).  Requires track_hierarchy.
  [[nodiscard]] std::vector<V> labels_at_level(int level) const {
    const auto nv = static_cast<std::int64_t>(community.size());
    std::vector<V> labels(static_cast<std::size_t>(nv));
    for (std::int64_t v = 0; v < nv; ++v) labels[static_cast<std::size_t>(v)] = static_cast<V>(v);
    const int depth = std::min<int>(level, static_cast<int>(hierarchy.size()));
    for (int k = 0; k < depth; ++k)
      for (std::int64_t v = 0; v < nv; ++v) {
        auto& c = labels[static_cast<std::size_t>(v)];
        c = hierarchy[static_cast<std::size_t>(k)][static_cast<std::size_t>(c)];
      }
    return labels;
  }

  /// Fraction of total time spent contracting (the paper's 40–80% claim).
  [[nodiscard]] double contraction_fraction() const noexcept {
    double contract = 0.0;
    double all = 0.0;
    for (const auto& l : levels) {
      contract += l.contract_seconds;
      all += l.score_seconds + l.match_seconds + l.contract_seconds;
    }
    return all > 0.0 ? contract / all : 0.0;
  }
};

}  // namespace commdet
