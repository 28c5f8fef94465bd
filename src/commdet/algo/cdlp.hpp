// Parallel CDLP — community detection by label propagation (Raghavan,
// Albert, Kumara 2007), the cheap backend behind DetectPlan.
//
// Every vertex adopts the label carrying the most incident edge weight
// among its neighbors, repeatedly, until a sweep changes nothing (or the
// iteration cap / convergence threshold fires).  Ties break to the
// SMALLEST label — the Graphalytics rule — which, together with integer
// edge weights (exact parallel sums in any order), makes the synchronous
// variant bit-identical under any thread count: each sweep reads only
// the previous sweep's labels, so the result is a pure function of the
// graph.  The asynchronous variant updates one shared label array in
// place; vertices see a mix of old and new neighbor labels, which
// converges in fewer sweeps but gives up run-to-run label determinism.
//
// O(E) per sweep, no contraction, no scoring — one to two orders of
// magnitude cheaper than agglomeration, with correspondingly looser
// quality.  The serve layer uses it for routine refresh ticks.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "commdet/algo/plan.hpp"
#include "commdet/core/clustering.hpp"
#include "commdet/core/metrics.hpp"
#include "commdet/graph/community_graph.hpp"
#include "commdet/graph/csr.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/timer.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

namespace detail {

/// Best label among v's neighbors: max total incident weight, ties to
/// the smallest label.  `scratch` is caller-owned per-thread storage.
/// Reading neighbor labels goes through `read` so the sync variant can
/// read the front buffer plainly while the async variant reads the
/// shared array through atomic_ref.
template <VertexId V, typename ReadLabel>
[[nodiscard]] V cdlp_best_label(const CsrGraph<V>& g, V v, V current, ReadLabel&& read,
                                std::vector<std::pair<V, Weight>>& scratch) {
  const auto nbrs = g.neighbors_of(v);
  const auto wts = g.weights_of(v);
  const Weight self = g.self_weight[static_cast<std::size_t>(v)];
  if (nbrs.empty() && self == 0) return current;
  scratch.clear();
  // A self-loop votes for the current label with both endpoints.
  if (self > 0) scratch.emplace_back(current, 2 * self);
  for (std::size_t k = 0; k < nbrs.size(); ++k)
    scratch.emplace_back(read(nbrs[k]), wts[k]);
  std::sort(scratch.begin(), scratch.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  V best = current;
  Weight best_weight = 0;
  std::size_t i = 0;
  while (i < scratch.size()) {
    const V label = scratch[i].first;
    Weight total = 0;
    for (; i < scratch.size() && scratch[i].first == label; ++i) total += scratch[i].second;
    // Strict >: ascending label order makes the first maximum the
    // smallest label, the deterministic Graphalytics tie-break.
    if (total > best_weight) {
      best_weight = total;
      best = label;
    }
  }
  return best;
}

}  // namespace detail

/// Runs CDLP over `g` and returns the standard Clustering contract:
/// dense labels, quality scalars from evaluate_partition, termination
/// kLocalMaximum when converged / kLevelCap when the sweep cap fired,
/// and the "algorithm" provenance object filled in.
template <VertexId V>
[[nodiscard]] Clustering<V> cdlp_cluster(const CommunityGraph<V>& input,
                                         const CdlpOptions& opts = {},
                                         bool synchronous = true) {
  WallTimer timer;
  obs::ScopedSpan span(synchronous ? "cdlp.sync" : "cdlp.async");
  const auto nv = static_cast<std::int64_t>(input.nv);

  Clustering<V> result;
  result.algorithm.emplace();
  result.algorithm->name = synchronous ? "lp-sync" : "lp-async";
  result.community.resize(static_cast<std::size_t>(nv));
  for (std::int64_t v = 0; v < nv; ++v)
    result.community[static_cast<std::size_t>(v)] = static_cast<V>(v);
  result.num_communities = nv;
  if (nv == 0 || input.total_weight == 0) {
    result.total_seconds = timer.seconds();
    return result;
  }

  const CsrGraph<V> g = to_csr(input);
  std::vector<V> labels = result.community;
  std::vector<V> next;  // sync double buffer
  if (synchronous) next.assign(labels.begin(), labels.end());

  const auto threshold = static_cast<std::int64_t>(
      opts.convergence_fraction * static_cast<double>(nv));
  bool converged = false;
  int sweeps = 0;
  while (sweeps < opts.max_iterations) {
    ++sweeps;
    struct Sweeper { std::vector<std::pair<V, Weight>> scratch; std::int64_t changed = 0; };
    const auto sweep = [&](Sweeper& t, std::int64_t v) {
      const auto vi = static_cast<std::size_t>(v);
      if (synchronous) {
        const V cur = labels[vi];
        const V best = detail::cdlp_best_label(
            g, static_cast<V>(v), cur,
            [&](V u) { return labels[static_cast<std::size_t>(u)]; }, t.scratch);
        next[vi] = best;
        if (best != cur) ++t.changed;
      } else {
        const V cur = std::atomic_ref<V>(labels[vi]).load(std::memory_order_relaxed);
        const V best = detail::cdlp_best_label(
            g, static_cast<V>(v), cur,
            [&](V u) {
              return std::atomic_ref<V>(labels[static_cast<std::size_t>(u)])
                  .load(std::memory_order_relaxed);
            },
            t.scratch);
        if (best != cur) {
          std::atomic_ref<V>(labels[vi]).store(best, std::memory_order_relaxed);
          ++t.changed;
        }
      }
    };
    std::int64_t changed = 0;
    for (const Sweeper& t :
         parallel_for_each_thread(nv, dynamic_schedule(256), [] { return Sweeper{}; }, sweep))
      changed += t.changed;
    if (synchronous) labels.swap(next);
    if (changed <= threshold) {
      converged = true;
      break;
    }
  }

  result.community = std::move(labels);
  result.num_communities = compact_labels(result.community);
  const PartitionQuality q = evaluate_partition(
      input, std::span<const V>(result.community.data(), result.community.size()));
  result.final_modularity = q.modularity;
  result.final_coverage = q.coverage;
  result.reason = converged ? TerminationReason::kLocalMaximum : TerminationReason::kLevelCap;
  result.algorithm->iterations = sweeps;
  result.algorithm->converged = converged;
  result.total_seconds = timer.seconds();
  span.attr("sweeps", static_cast<std::int64_t>(sweeps));
  span.attr("communities", result.num_communities);
  if (auto* c = obs::counter("algo.cdlp.sweeps")) c->add(sweeps);
  return result;
}

}  // namespace commdet
