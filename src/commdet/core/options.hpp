// Driver configuration and termination reporting (paper Sec. III).
//
// "Termination occurs either when the algorithm finds a local maximum or
// according to external constraints. [...] Real applications will impose
// additional constraints like a minimum number of communities or maximum
// community size.  Following the spirit of the 10th DIMACS Implementation
// Challenge rules, Section V's performance experiments terminate once at
// least half the initial graph's edges are contained within the
// communities, a coverage >= 0.5."
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "commdet/robust/budget.hpp"

namespace commdet {

enum class MatcherKind {
  kUnmatchedList,     // the paper's improved algorithm (default)
  kEdgeSweep,         // the paper's original algorithm (ablation baseline)
  kSequentialGreedy,  // deterministic Preis-style reference
};

/// Crash-safe checkpointing of the agglomeration loop (see
/// robust/checkpoint.hpp for the snapshot format and loader).  When a
/// directory is set, the driver snapshots the resumable state at level
/// boundaries; an interrupted run restarts from its newest valid
/// generation via resume_agglomerate / resume_detect.
struct CheckpointOptions {
  /// Directory for checkpoint generations.  Empty disables checkpointing.
  std::string directory;

  /// Write a checkpoint after every this-many completed levels.
  int every_levels = 1;

  /// Newest generations retained after a successful write (>= 1).  Two
  /// generations survive a latest-generation corruption.
  int keep_generations = 2;

  /// Also write a final checkpoint when a budget violation, interrupt,
  /// or contained error stops the run, so the work completed so far is
  /// handed to the next invocation (TerminationReason::kCheckpointed).
  bool on_exhaustion = true;

  /// Extra entropy folded into the configuration fingerprint.  Callers
  /// that select behaviour outside AgglomerationOptions (scorer kind,
  /// resolution gamma, input graph identity) fold it in here so a
  /// resume under a different setup is refused.
  std::uint64_t config_salt = 0;

  [[nodiscard]] bool enabled() const noexcept { return !directory.empty(); }
};

struct AgglomerationOptions {
  /// Stop once coverage (fraction of total weight inside communities)
  /// reaches this value.  Values > 1 disable the criterion; the paper's
  /// performance experiments use 0.5.
  double min_coverage = 2.0;

  /// Stop when at most this many communities remain.
  std::int64_t min_communities = 1;

  /// Forbid merges that would exceed this many original vertices per
  /// community.  0 disables the constraint.
  std::int64_t max_community_size = 0;

  /// Hard cap on contraction levels.  0 disables.
  int max_levels = 0;

  /// Record the per-level relabeling maps (the contraction dendrogram)
  /// in Clustering::hierarchy.  Costs one |V_level| vector per level.
  bool track_hierarchy = false;

  /// Resource budget for the whole run (wall clock, memory estimate,
  /// progress watchdog).  Default: unlimited.  On exhaustion the driver
  /// degrades gracefully: it stops and returns the best clustering
  /// completed so far with the matching TerminationReason.
  RunBudget budget;

  /// Crash-safe checkpoint/resume.  Disabled unless a directory is set.
  CheckpointOptions checkpoint;

  MatcherKind matcher = MatcherKind::kUnmatchedList;
};

enum class TerminationReason {
  kLocalMaximum,     // no edge had a positive score
  kNoMatches,        // positive edges existed but none could pair (size cap)
  kCoverage,         // coverage threshold reached
  kMinCommunities,   // community count floor reached
  kLevelCap,         // max_levels reached
  kDeadline,         // RunBudget wall-clock limit; best-so-far returned
  kMemoryBudget,     // RunBudget memory ceiling; best-so-far returned
  kStalled,          // RunBudget progress watchdog; best-so-far returned
  kContainedError,   // a level failed; best-so-far returned, see Clustering::error
  kInterrupted,      // stop requested (SIGINT/SIGTERM); best-so-far returned
  kCheckpointed,     // run stopped early but its state was checkpointed:
                     // re-run with resume to continue from here
};

/// True when the run ended early but still returned a valid (degraded)
/// best-so-far clustering rather than an optimum of its criterion.
[[nodiscard]] constexpr bool is_degraded(TerminationReason r) noexcept {
  return r == TerminationReason::kDeadline || r == TerminationReason::kMemoryBudget ||
         r == TerminationReason::kStalled || r == TerminationReason::kContainedError ||
         r == TerminationReason::kInterrupted || r == TerminationReason::kCheckpointed;
}

[[nodiscard]] constexpr std::string_view to_string(TerminationReason r) noexcept {
  switch (r) {
    case TerminationReason::kLocalMaximum: return "local-maximum";
    case TerminationReason::kNoMatches: return "no-matches";
    case TerminationReason::kCoverage: return "coverage";
    case TerminationReason::kMinCommunities: return "min-communities";
    case TerminationReason::kLevelCap: return "level-cap";
    case TerminationReason::kDeadline: return "deadline";
    case TerminationReason::kMemoryBudget: return "memory-budget";
    case TerminationReason::kStalled: return "stalled";
    case TerminationReason::kContainedError: return "contained-error";
    case TerminationReason::kInterrupted: return "interrupted";
    case TerminationReason::kCheckpointed: return "checkpointed";
  }
  return "unknown";
}

[[nodiscard]] constexpr std::string_view to_string(MatcherKind m) noexcept {
  switch (m) {
    case MatcherKind::kUnmatchedList: return "unmatched-list";
    case MatcherKind::kEdgeSweep: return "edge-sweep";
    case MatcherKind::kSequentialGreedy: return "sequential-greedy";
  }
  return "unknown";
}

}  // namespace commdet
