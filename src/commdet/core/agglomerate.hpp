// The parallel agglomerative community-detection driver (paper Sec. III).
//
// Repeats until a termination criterion fires:
//   1. score every community-graph edge (exit if none is positive),
//   2. greedily compute a heavy maximal matching over those scores,
//   3. contract matched communities into a new community graph.
//
// Each step is one parallel primitive; the driver adds constraint
// filtering (maximum community size), the original-vertex -> community
// map, and per-level telemetry.
//
// The driver is restartable: with AgglomerationOptions::checkpoint set,
// the resumable state is snapshotted at level boundaries (and on budget
// exhaustion or interrupt), and resume_agglomerate() continues a run
// from its newest valid checkpoint with the same trajectory an
// uninterrupted run would have taken.
#pragma once

#include <atomic>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "commdet/contract/bucket_sort_contractor.hpp"
#include "commdet/core/clustering.hpp"
#include "commdet/core/options.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/graph/community_graph.hpp"
#include "commdet/match/edge_sweep_matcher.hpp"
#include "commdet/match/sequential_greedy_matcher.hpp"
#include "commdet/match/unmatched_list_matcher.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/obs/probes.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/robust/budget.hpp"
#include "commdet/robust/checkpoint.hpp"
#include "commdet/robust/error.hpp"
#include "commdet/robust/fault_injection.hpp"
#include "commdet/score/score_edges.hpp"
#include "commdet/util/timer.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

namespace detail {

/// Maps a budget/containment Error onto the driver's termination enum.
[[nodiscard]] constexpr TerminationReason termination_for(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kDeadlineExceeded: return TerminationReason::kDeadline;
    case ErrorCode::kMemoryBudget: return TerminationReason::kMemoryBudget;
    case ErrorCode::kStalled: return TerminationReason::kStalled;
    case ErrorCode::kInterrupted: return TerminationReason::kInterrupted;
    default: return TerminationReason::kContainedError;
  }
}

template <VertexId V>
[[nodiscard]] Matching<V> run_matcher(MatcherKind kind, const CommunityGraph<V>& g,
                                      const std::vector<Score>& scores) {
  COMMDET_FAULT_POINT(fault::kMatch, Phase::kMatch);
  switch (kind) {
    case MatcherKind::kEdgeSweep:
      return EdgeSweepMatcher<V>{}.match(g, scores);
    case MatcherKind::kSequentialGreedy:
      return SequentialGreedyMatcher<V>{}.match(g, scores);
    case MatcherKind::kUnmatchedList:
      break;
  }
  return UnmatchedListMatcher<V>{}.match(g, scores);
}

/// The original-vertex -> community map, composed lazily.  Rewriting
/// every original vertex's entry at every level costs O(original nv)
/// per level even when a few thousand communities remain, and R-MAT
/// runs last ~1000 levels.  Instead each level's new_label is composed
/// into an anchor -> current array sized to the graph at the anchor
/// level, and that array is folded into `community` (and re-anchored at
/// the current level) once the graph has halved since the anchor.  A
/// level then costs O(current nv), plus O(original nv) per halving.
/// Function composition is exact, so flushed maps equal the eager ones;
/// flush() must precede every read of `community`.
template <VertexId V>
class LazyCommunityMap {
 public:
  LazyCommunityMap(std::vector<V>& community, std::int64_t nv)
      : community_(community), anchor_nv_(nv) {}

  /// Applies one level's old -> new community labels.
  void compose(std::span<const V> new_label, std::int64_t nv_after) {
    if (!composed_) {
      to_current_.assign(new_label.begin(), new_label.end());  // identity, then new_label
    } else {
      parallel_for(static_cast<std::int64_t>(to_current_.size()), [&](std::int64_t a) {
        auto& c = to_current_[static_cast<std::size_t>(a)];
        c = new_label[static_cast<std::size_t>(c)];
      });
    }
    composed_ = true;
    current_nv_ = nv_after;
    if (2 * nv_after <= anchor_nv_) flush();
  }

  /// Folds the composed levels into `community` and re-anchors there.
  void flush() {
    if (!composed_) return;
    parallel_for(static_cast<std::int64_t>(community_.size()), [&](std::int64_t v) {
      auto& c = community_[static_cast<std::size_t>(v)];
      c = to_current_[static_cast<std::size_t>(c)];
    });
    anchor_nv_ = current_nv_;
    composed_ = false;
  }

 private:
  std::vector<V>& community_;
  std::vector<V> to_current_;  // anchor community -> current; valid while composed_
  std::int64_t anchor_nv_;
  std::int64_t current_nv_ = 0;
  bool composed_ = false;
};

/// Modularity of the current community graph's partition:
/// sum_c [ self(c)/W - (vol(c)/2W)^2 ].  Reads only the per-vertex
/// state, so the sharded driver evaluates its graph with it too.
template <VertexState G>
[[nodiscard]] double partition_modularity(const G& g) {
  if (g.total_weight == 0) return 0.0;
  const auto w = static_cast<double>(g.total_weight);
  return parallel_sum<double>(static_cast<std::int64_t>(g.nv), [&](std::int64_t c) {
    const auto i = static_cast<std::size_t>(c);
    const double vol = static_cast<double>(g.volume[i]) / (2.0 * w);
    return static_cast<double>(g.self_weight[i]) / w - vol * vol;
  });
}

/// Coverage: fraction of total weight collapsed inside communities.
template <VertexState G>
[[nodiscard]] double partition_coverage(const G& g) {
  if (g.total_weight == 0) return 1.0;
  const Weight inside =
      parallel_sum<Weight>(static_cast<std::int64_t>(g.nv), [&](std::int64_t c) {
        return g.self_weight[static_cast<std::size_t>(c)];
      });
  return static_cast<double>(inside) / static_cast<double>(g.total_weight);
}

/// The level-boundary policy of an agglomeration run, shared by the
/// unsharded driver (agglomerate_impl below) and the sharded one
/// (shard/shard_detect.hpp).  It owns the run span, the result and its
/// lazy community map, and the budget; run() is the level loop: the
/// stop checks (interrupt, deadline, memory), the termination tests
/// (level cap, local maximum, no matches, coverage, minimum
/// communities, stall), the phase spans and timers, the post-contraction
/// bookkeeping (compose, hierarchy, quality, RSS probe), and the
/// containment of a failing level.  A driver supplies its graph and the
/// three phase calls as lambdas, so a level costs no indirect call.
template <VertexId V>
class LevelLoop {
 public:
  /// Seats the run on graph `g`.  A fresh run passes an empty `result`
  /// and starts from the identity map; a resumed run passes the maps
  /// and history its checkpoint carried and the time it already spent.
  template <VertexState G>
  LevelLoop(const G& g, const AgglomerationOptions& opts, Clustering<V> result = {},
            double base_elapsed = 0.0)
      : opts_(opts), result_(std::move(result)),
        community_map_(result_.community, static_cast<std::int64_t>(g.nv)),
        budget_(opts.budget, base_elapsed), base_elapsed_(base_elapsed),
        completed_levels_(static_cast<int>(result_.levels.size())) {
    span_.attr("nv", static_cast<std::int64_t>(g.nv));
    span_.attr("ne", static_cast<std::int64_t>(g.num_edges()));
    if (result_.community.empty()) {
      result_.community.resize(static_cast<std::size_t>(g.nv));
      std::iota(result_.community.begin(), result_.community.end(), V{0});
    }
    result_.num_communities = static_cast<std::int64_t>(g.nv);
    result_.final_modularity = partition_modularity(g);
    result_.final_coverage = partition_coverage(g);
  }
  LevelLoop(const LevelLoop&) = delete;
  LevelLoop& operator=(const LevelLoop&) = delete;

  [[nodiscard]] Clustering<V>& result() noexcept { return result_; }
  [[nodiscard]] obs::ScopedSpan& span() noexcept { return span_; }
  [[nodiscard]] int completed_levels() const noexcept { return completed_levels_; }
  [[nodiscard]] int last_completed_level() const noexcept { return last_completed_level_; }
  [[nodiscard]] double elapsed_seconds() const noexcept {
    return base_elapsed_ + timer_.seconds();
  }
  /// Folds the composed levels into result().community; must precede
  /// every read of it.
  void flush() { community_map_.flush(); }

  /// Runs levels start_level, start_level + 1, ... over the graph
  /// `graph()` returns (the one the next level reads) until a
  /// termination test or a stop fires.  Per level:
  ///   score(span) -> ScoreSummary
  ///   match(span) -> Matching<V>
  ///   contract(matching, span) -> new_label, after replacing the graph
  ///   at_boundary(level), once the level completed and the run goes on.
  /// `working_bytes()` is what the memory budget counts.  Score and
  /// match must not mutate the graph, and contract must throw before it
  /// replaces it, so a contained failure leaves the graph and the maps
  /// at the last completed level.
  template <typename Graph, typename Bytes, typename Score, typename Match, typename Contract,
            typename Boundary>
  void run(Graph&& graph, int start_level, Bytes&& working_bytes, Score&& score, Match&& match,
           Contract&& contract, Boundary&& at_boundary) {
    last_completed_level_ = start_level - 1;
    for (int level = start_level;; ++level) {
      if (opts_.max_levels > 0 && level > opts_.max_levels) {
        result_.reason = TerminationReason::kLevelCap;
        return;
      }
      if (stop_requested(working_bytes, /*check_memory=*/true)) return;

      LevelStats stats;
      stats.level = level;
      stats.nv_before = static_cast<std::int64_t>(graph().nv);
      stats.ne_before = graph().num_edges();

      obs::ScopedSpan level_span("level");
      level_span.attr("level", level);
      level_span.attr("nv_before", stats.nv_before);
      level_span.attr("ne_before", static_cast<std::int64_t>(stats.ne_before));

      // The three phases run under containment: an exception raised
      // inside any of them (already rethrown on this thread by the
      // parallel wrappers) abandons the level; `result_` stays the valid
      // best-so-far, tagged with the error.
      Phase phase = Phase::kScore;
      try {
        ScoreSummary summary;
        {
          ScopedTimer t(stats.score_seconds);
          obs::ScopedSpan span("score");
          summary = score(span);
          span.attr("positive_edges", static_cast<std::int64_t>(summary.positive_edges));
          span.attr("max_score", summary.max_score);
        }
        stats.positive_edges = summary.positive_edges;
        stats.max_score = summary.max_score;
        if (summary.positive_edges == 0) {
          result_.reason = TerminationReason::kLocalMaximum;
          return;
        }
        if (stop_requested(working_bytes, /*check_memory=*/false)) return;

        phase = Phase::kMatch;
        Matching<V> matching;
        {
          ScopedTimer t(stats.match_seconds);
          obs::ScopedSpan span("match");
          matching = match(span);
          span.attr("pairs_matched", matching.num_pairs);
          span.attr("sweeps", matching.sweeps);
        }
        stats.pairs_matched = matching.num_pairs;
        stats.match_sweeps = matching.sweeps;
        if (matching.num_pairs == 0) {
          result_.reason = TerminationReason::kNoMatches;
          return;
        }
        if (stop_requested(working_bytes, /*check_memory=*/false)) return;

        phase = Phase::kContract;
        std::vector<V> new_label;
        {
          ScopedTimer t(stats.contract_seconds);
          obs::ScopedSpan span("contract");
          new_label = contract(matching, span);
          span.attr("nv_after", static_cast<std::int64_t>(graph().nv));
          span.attr("ne_after", static_cast<std::int64_t>(graph().num_edges()));
        }

        // Bookkeeping: original-vertex map, dendrogram, quality.
        phase = Phase::kDriver;
        const auto& g = graph();
        community_map_.compose(std::span<const V>(new_label), static_cast<std::int64_t>(g.nv));
        if (opts_.track_hierarchy) result_.hierarchy.push_back(std::move(new_label));
        stats.nv_after = static_cast<std::int64_t>(g.nv);
        stats.ne_after = g.num_edges();
        stats.coverage = partition_coverage(g);
        stats.modularity = partition_modularity(g);

        // Level-boundary resource probe: RSS high-water into the level
        // span and the run gauge.  The /proc read only happens when a
        // sink is installed.
        if (level_span.active() || rss_gauge_ != nullptr) {
          const std::int64_t rss = obs::rss_high_water_bytes();
          if (rss_gauge_ != nullptr) rss_gauge_->record(rss);
          level_span.attr("rss_hwm_bytes", rss);
        }
        level_span.attr("nv_after", stats.nv_after);
        level_span.attr("coverage", stats.coverage);
        level_span.attr("modularity", stats.modularity);
      } catch (const std::exception& e) {
        contain(error_from_exception(e, phase), stats, level_span);
        return;
      } catch (...) {
        contain(Error{ErrorCode::kInternal, phase, "non-standard exception"}, stats, level_span);
        return;
      }

      result_.levels.push_back(stats);
      ++completed_levels_;
      last_completed_level_ = level;
      result_.num_communities = stats.nv_after;
      result_.final_coverage = stats.coverage;
      result_.final_modularity = stats.modularity;

      if (stats.coverage >= opts_.min_coverage) {
        result_.reason = TerminationReason::kCoverage;
        return;
      }
      if (result_.num_communities <= opts_.min_communities) {
        result_.reason = TerminationReason::kMinCommunities;
        return;
      }
      if (budgeted_) {
        if (auto violation = budget_.note_level(stats.nv_before, stats.nv_after)) {
          degrade(std::move(*violation));
          return;
        }
      }
      at_boundary(level);
    }
  }

  /// Flushes the map, stamps the run time and closing span attributes,
  /// and hands the result over.
  [[nodiscard]] Clustering<V> finish() {
    flush();
    result_.total_seconds = elapsed_seconds();
    span_.attr("levels", static_cast<std::int64_t>(result_.levels.size()));
    span_.attr("termination", to_string(result_.reason));
    if (span_.active()) span_.attr("rss_hwm_bytes", obs::rss_high_water_bytes());
    return std::move(result_);
  }

 private:
  /// A budget or containment stop: the loop ends and the result keeps
  /// the best clustering completed so far, tagged with the reason
  /// (graceful degradation, never a crash).
  void degrade(Error e) {
    result_.reason = termination_for(e.code);
    result_.error = std::move(e);
  }

  /// Keeps the failing level's partial telemetry: ScopedTimer
  /// accumulated the failing phase's time during unwinding, and the
  /// phases that did finish left their counts in `stats`.
  void contain(Error e, const LevelStats& stats, obs::ScopedSpan& level_span) {
    degrade(std::move(e));
    result_.failed_level = stats;
    level_span.set_error();
  }

  /// Stop checks at the level boundary and between phases: cooperative
  /// interrupt first (a signal handler set the flag), then the budget.
  /// Budgets engage after the grace levels; a resumed run's deadline
  /// covers the whole logical run.  Returns whether the run stops.
  template <typename Bytes>
  [[nodiscard]] bool stop_requested(Bytes& working_bytes, bool check_memory) {
    std::optional<Error> stop;
    if (interrupt_requested()) {
      stop = Error{ErrorCode::kInterrupted, Phase::kDriver, "interrupt requested (SIGINT/SIGTERM)"};
    } else if (budgeted_) {
      stop = budget_.check_deadline(completed_levels_);
      if (!stop && check_memory) stop = budget_.check_memory(working_bytes(), completed_levels_);
    }
    if (!stop) return false;
    degrade(std::move(*stop));
    return true;
  }

  WallTimer timer_;
  obs::ScopedSpan span_{"agglomerate"};
  obs::Gauge* rss_gauge_ = obs::gauge("agglomerate.rss_hwm_bytes");
  const AgglomerationOptions& opts_;
  Clustering<V> result_;
  LazyCommunityMap<V> community_map_;
  BudgetTracker budget_;
  const bool budgeted_ = opts_.budget.limited();
  double base_elapsed_;
  int completed_levels_;
  int last_completed_level_ = 0;
};

/// The unsharded level loop, shared by fresh and resumed runs: the
/// three phases over a CommunityGraph, plus what only this driver has —
/// the size cap, recycled contraction buffers, and checkpoints at level
/// boundaries.  The first level reads `borrowed` in place when it is
/// given (the caller keeps it, so it is never recycled), else `owned`,
/// which becomes the spare once level 1 replaced it.  `resume` seats the
/// loop at a checkpoint's level boundary: `owned` is the restored
/// community graph and the maps/history/elapsed time come from the
/// checkpoint (moved out of it).
template <VertexId V, EdgeScorer S>
[[nodiscard]] Clustering<V> agglomerate_impl(CommunityGraph<V> owned,
                                             const CommunityGraph<V>* borrowed, const S& scorer,
                                             const AgglomerationOptions& opts,
                                             CheckpointState<V>* resume) {
  // The graph the next level reads: the borrowed input, then `owned`.
  const CommunityGraph<V>* g = borrowed != nullptr ? borrowed : &owned;
  Clustering<V> seed;
  const std::int64_t original_nv =
      resume != nullptr ? resume->original_nv : static_cast<std::int64_t>(g->nv);
  const double base_elapsed = resume != nullptr ? resume->elapsed_seconds : 0.0;
  if (resume != nullptr) {
    seed.community = std::move(resume->community);
    seed.levels = std::move(resume->levels);
    seed.hierarchy = std::move(resume->hierarchy);
  }
  LevelLoop<V> loop(*g, opts, std::move(seed), base_elapsed);
  loop.span().attr("matcher", to_string(opts.matcher));
  Clustering<V>& result = loop.result();

  // Original-vertex counts per community, for the max-size constraint.
  std::vector<std::int64_t> vertex_count;
  if (opts.max_community_size > 0) {
    if (resume != nullptr && !resume->vertex_count.empty())
      vertex_count = std::move(resume->vertex_count);
    else
      vertex_count.assign(static_cast<std::size_t>(g->nv), 1);
  }

  // Checkpoint machinery.  Snapshot writes are contained: a failing
  // checkpoint is counted and the (healthy) run keeps going.
  const int start_level = resume != nullptr ? resume->next_level : 1;
  const bool ckpt_enabled = opts.checkpoint.enabled();
  const std::uint64_t fingerprint =
      ckpt_enabled || resume != nullptr ? options_fingerprint(opts) : 0;
  if (ckpt_enabled || resume != nullptr) {
    CheckpointProvenance prov;
    prov.directory = opts.checkpoint.directory;
    if (resume != nullptr) {
      prov.resumed_from = resume->source_path;
      prov.resumed_generation = resume->source_generation;
      prov.resumed_level = start_level;
      prov.resumed_elapsed_seconds = base_elapsed;
    }
    result.checkpoint = std::move(prov);
    loop.span().attr("resumed", resume != nullptr ? 1 : 0);
  }
  obs::Counter* ckpt_write_counter = ckpt_enabled ? obs::counter("checkpoint.writes") : nullptr;
  const auto save_checkpoint_now = [&](int next_level) -> bool {
    if (!ckpt_enabled) return false;
    loop.flush();
    obs::ScopedSpan span("checkpoint");
    span.attr("next_level", next_level);
    try {
      CheckpointView<V> view;
      view.config_fingerprint = fingerprint;
      view.original_nv = original_nv;
      view.next_level = next_level;
      view.elapsed_seconds = loop.elapsed_seconds();
      view.graph = g;
      view.community = &result.community;
      view.vertex_count = vertex_count.empty() ? nullptr : &vertex_count;
      view.levels = &result.levels;
      view.hierarchy = opts.track_hierarchy ? &result.hierarchy : nullptr;
      const std::int64_t generation =
          save_checkpoint(opts.checkpoint.directory, view, opts.checkpoint.keep_generations);
      result.checkpoint->last_generation = generation;
      ++result.checkpoint->checkpoints_written;
      if (ckpt_write_counter != nullptr) ckpt_write_counter->add(1);
      span.attr("generation", generation);
      return true;
    } catch (const std::exception& e) {
      // A failing snapshot must not take down a healthy run: record it
      // and continue without checkpoint coverage for this boundary.
      ++result.checkpoint->checkpoint_failures;
      span.set_error();
      span.attr("error", e.what());
      if (obs::Counter* f = obs::counter("checkpoint.failures")) f->add(1);
      return false;
    }
  };

  // Contraction storage recycled across levels: each replaced graph the
  // driver owns becomes the spare whose arrays the next contraction fills.
  ContractionBuffers<V> buffers;
  std::vector<Score> scores;
  loop.run(
      [&]() -> const CommunityGraph<V>& { return *g; }, start_level,
      // The memory check counts the recycled storage with the live graph.
      [&] { return estimate_working_set_bytes(*g) + buffers.retained_bytes(); },
      [&](obs::ScopedSpan&) {
        const ScoreSummary summary = score_edges(*g, scorer, scores);
        if (opts.max_community_size > 0) {
          // Disqualify merges that would exceed the size cap by zeroing
          // their scores before matching.
          parallel_for(g->num_edges(), [&](std::int64_t e) {
            const auto i = static_cast<std::size_t>(e);
            if (scores[i] <= 0.0) return;
            const auto merged = vertex_count[static_cast<std::size_t>(g->efirst[i])] +
                                vertex_count[static_cast<std::size_t>(g->esecond[i])];
            if (merged > opts.max_community_size) scores[i] = 0.0;
          });
        }
        return summary;
      },
      [&](obs::ScopedSpan&) { return detail::run_matcher(opts.matcher, *g, scores); },
      [&](const Matching<V>& matching, obs::ScopedSpan& span) {
        COMMDET_FAULT_POINT(fault::kContract, Phase::kContract);
        const auto spare_bytes = buffers.spare.capacity_bytes();
        auto contracted = BucketSortContractor<V>{}.contract(*g, matching, buffers);
        span.attr("fresh_bytes", grown_bytes(spare_bytes, contracted.graph.capacity_bytes()));
        if (g == &owned) buffers.spare = std::move(owned);  // a borrowed input is only read
        owned = std::move(contracted.graph);
        g = &owned;
        const auto& new_label = contracted.new_label;
        if (opts.max_community_size > 0) {
          // A matching contraction gives each new label at most two
          // preimages, so no slot takes more than two of these adds.
          std::vector<std::int64_t> new_count(static_cast<std::size_t>(g->nv), 0);
          parallel_for(static_cast<std::int64_t>(new_label.size()), [&](std::int64_t v) {
            std::atomic_ref<std::int64_t>(
                new_count[static_cast<std::size_t>(new_label[static_cast<std::size_t>(v)])])
                .fetch_add(vertex_count[static_cast<std::size_t>(v)],
                           std::memory_order_relaxed);
          });
          vertex_count = std::move(new_count);
        }
        return std::move(contracted.new_label);
      },
      // Level boundary reached with the run still going: checkpoint on
      // the configured cadence.
      [&](int level) {
        if (ckpt_enabled && opts.checkpoint.every_levels > 0 &&
            loop.completed_levels() % opts.checkpoint.every_levels == 0)
          (void)save_checkpoint_now(level + 1);
      });

  // A degraded stop hands its state to the next invocation: one final
  // checkpoint at the last completed level boundary.  Budget and
  // interrupt stops become kCheckpointed (the run is explicitly
  // resumable); a contained error keeps its diagnostic reason but is
  // checkpointed all the same.
  if (ckpt_enabled && opts.checkpoint.on_exhaustion && is_degraded(result.reason)) {
    const bool saved = save_checkpoint_now(loop.last_completed_level() + 1);
    if (saved && result.reason != TerminationReason::kContainedError)
      result.reason = TerminationReason::kCheckpointed;
  }
  return loop.finish();
}

}  // namespace detail

/// Runs agglomerative community detection on a community graph (consumed).
template <VertexId V, EdgeScorer S>
[[nodiscard]] Clustering<V> agglomerate(CommunityGraph<V> g, const S& scorer,
                                        const AgglomerationOptions& opts = {}) {
  return detail::agglomerate_impl(std::move(g), static_cast<const CommunityGraph<V>*>(nullptr),
                                  scorer, opts, static_cast<CheckpointState<V>*>(nullptr));
}

/// Convenience overload: builds the community graph from a raw edge list.
template <VertexId V, EdgeScorer S>
[[nodiscard]] Clustering<V> agglomerate(const EdgeList<V>& edges, const S& scorer,
                                        const AgglomerationOptions& opts = {}) {
  return agglomerate(build_community_graph(edges), scorer, opts);
}

/// Continues an interrupted run from a checkpoint (consumed).  The
/// options must describe the same trajectory the checkpoint was written
/// under — matcher, constraints, and the caller's
/// config_salt are folded into a fingerprint and a mismatch is refused
/// with ErrorCode::kCheckpointMismatch.  Budget and checkpoint-cadence
/// fields may differ (a resume typically raises the deadline).
template <VertexId V, EdgeScorer S>
[[nodiscard]] Clustering<V> resume_agglomerate(CheckpointState<V> ckpt, const S& scorer,
                                               const AgglomerationOptions& opts = {}) {
  const std::uint64_t fingerprint = options_fingerprint(opts);
  if (fingerprint != ckpt.config_fingerprint)
    throw_error(ErrorCode::kCheckpointMismatch, Phase::kDriver,
                "checkpoint was written under a different configuration "
                "(matcher/constraints/scorer); refusing to resume" +
                    (ckpt.source_path.empty() ? std::string()
                                              : " from " + ckpt.source_path));
  CommunityGraph<V> g = std::move(ckpt.graph);
  return detail::agglomerate_impl(std::move(g), static_cast<const CommunityGraph<V>*>(nullptr),
                                  scorer, opts, &ckpt);
}

}  // namespace commdet
