// Parallel local-move refinement of a community assignment.
//
// The paper names refinement as active future work ("Incorporating
// refinement into our parallel algorithm is an area of active work",
// Sec. II) — this module implements it.  Given the original graph and a
// partition (typically the agglomerative driver's output), rounds of
// Louvain-style vertex moves run in parallel: each vertex inspects its
// neighbors' communities and moves to the one with the best positive
// modularity gain.
//
// Parallel moves use snapshot volumes within a round (the standard
// parallel-Louvain relaxation): two simultaneous moves can interact, so
// gains are recomputed from the ground truth at the end of every round
// and refinement stops as soon as a round fails to improve the actual
// modularity, which keeps the reported result monotone.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "commdet/graph/community_graph.hpp"
#include "commdet/graph/csr.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

struct RefineOptions {
  int max_rounds = 16;
  double min_gain = 1e-12;  // per-move gain threshold
};

struct RefineStats {
  int rounds = 0;            // rounds that were kept
  std::int64_t moves = 0;    // vertex moves applied (kept rounds only)
  double modularity_before = 0.0;
  double modularity_after = 0.0;
};

namespace detail {

/// Modularity of `labels` over the CSR graph (labels need not be dense).
template <VertexId V>
[[nodiscard]] double csr_modularity(const CsrGraph<V>& g, std::span<const V> labels,
                                    double w_total) {
  const auto nv = static_cast<std::int64_t>(g.num_vertices());
  std::vector<double> internal(static_cast<std::size_t>(nv), 0.0);
  std::vector<double> volume(static_cast<std::size_t>(nv), 0.0);
  parallel_for(nv, [&](std::int64_t v) {
    const auto vi = static_cast<std::size_t>(v);
    const auto c = static_cast<std::size_t>(labels[vi]);
    const double self = static_cast<double>(g.self_weight[vi]);
    std::atomic_ref<double>(internal[c]).fetch_add(self, std::memory_order_relaxed);
    double vol = 2.0 * self;
    const auto nbrs = g.neighbors_of(static_cast<V>(v));
    const auto wts = g.weights_of(static_cast<V>(v));
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      vol += static_cast<double>(wts[k]);
      if (labels[static_cast<std::size_t>(nbrs[k])] == labels[vi])
        std::atomic_ref<double>(internal[c])
            .fetch_add(0.5 * static_cast<double>(wts[k]), std::memory_order_relaxed);
    }
    std::atomic_ref<double>(volume[c]).fetch_add(vol, std::memory_order_relaxed);
  });
  return parallel_sum<double>(nv, [&](std::int64_t c) {
    const auto ci = static_cast<std::size_t>(c);
    const double vol = volume[ci] / (2.0 * w_total);
    return internal[ci] / w_total - vol * vol;
  });
}

}  // namespace detail

/// Refines `labels` in place over the original graph g.  Labels are
/// re-densified on return.  Returns per-round statistics.
template <VertexId V>
RefineStats refine_partition(const CommunityGraph<V>& g, std::vector<V>& labels,
                             const RefineOptions& opts = {}) {
  RefineStats stats;
  if (g.total_weight == 0 || g.nv == 0) return stats;
  const double w_total = static_cast<double>(g.total_weight);
  const CsrGraph<V> csr = to_csr(g);
  const auto nv = static_cast<std::int64_t>(g.nv);

  stats.modularity_before = detail::csr_modularity(csr, std::span<const V>(labels), w_total);
  stats.modularity_after = stats.modularity_before;

  // Per-community volumes (indexed by label value; labels stay < nv).
  std::vector<double> comm_vol(static_cast<std::size_t>(nv), 0.0);
  std::vector<double> vertex_vol(static_cast<std::size_t>(nv), 0.0);
  parallel_for(nv, [&](std::int64_t v) {
    const auto vi = static_cast<std::size_t>(v);
    double vol = 2.0 * static_cast<double>(g.self_weight[vi]);
    for (const Weight w : csr.weights_of(static_cast<V>(v))) vol += static_cast<double>(w);
    vertex_vol[vi] = vol;
    std::atomic_ref<double>(comm_vol[static_cast<std::size_t>(labels[vi])])
        .fetch_add(vol, std::memory_order_relaxed);
  });

  std::vector<V> proposed(static_cast<std::size_t>(nv));
  for (int round = 0; round < opts.max_rounds; ++round) {
    // Propose: best neighbor community per vertex, from snapshot volumes.
    struct Proposer {
      std::unordered_map<std::int64_t, double> weight_to;
      std::int64_t proposals = 0;
    };
    const auto propose = [&](Proposer& t, std::int64_t v) {
      const auto vi = static_cast<std::size_t>(v);
      const V home = labels[vi];
      proposed[vi] = home;
      const auto nbrs = csr.neighbors_of(static_cast<V>(v));
      const auto wts = csr.weights_of(static_cast<V>(v));
      if (nbrs.empty()) return;
      t.weight_to.clear();
      t.weight_to[static_cast<std::int64_t>(home)];
      for (std::size_t k = 0; k < nbrs.size(); ++k)
        t.weight_to[static_cast<std::int64_t>(labels[static_cast<std::size_t>(nbrs[k])])] +=
            static_cast<double>(wts[k]);

      const double vol_v = vertex_vol[vi];
      const double home_vol =
          comm_vol[static_cast<std::size_t>(home)] - vol_v;  // v removed
      double best_gain =
          t.weight_to[static_cast<std::int64_t>(home)] / w_total -
          home_vol * vol_v / (2.0 * w_total * w_total);
      V best = home;
      for (const auto& [c, k_vc] : t.weight_to) {
        if (c == static_cast<std::int64_t>(home)) continue;
        const double gain =
            k_vc / w_total -
            comm_vol[static_cast<std::size_t>(c)] * vol_v / (2.0 * w_total * w_total);
        if (gain > best_gain + opts.min_gain) {
          best_gain = gain;
          best = static_cast<V>(c);
        }
      }
      if (best != home) {
        proposed[vi] = best;
        ++t.proposals;
      }
    };
    std::int64_t proposals = 0;
    for (const Proposer& t : parallel_for_each_thread(nv, dynamic_schedule(256),
                                                      [] { return Proposer{}; }, propose))
      proposals += t.proposals;
    if (proposals == 0) break;

    // Apply the round tentatively, then keep it only if the true
    // modularity improved (simultaneous moves can conflict).
    std::vector<V> backup(labels);
    const std::int64_t applied = parallel_count(nv, [&](std::int64_t v) {
      const auto vi = static_cast<std::size_t>(v);
      if (proposed[vi] == labels[vi]) return false;
      std::atomic_ref<double>(comm_vol[static_cast<std::size_t>(labels[vi])])
          .fetch_add(-vertex_vol[vi], std::memory_order_relaxed);
      std::atomic_ref<double>(comm_vol[static_cast<std::size_t>(proposed[vi])])
          .fetch_add(vertex_vol[vi], std::memory_order_relaxed);
      labels[vi] = proposed[vi];
      return true;
    });
    const double q = detail::csr_modularity(csr, std::span<const V>(labels), w_total);
    if (q <= stats.modularity_after + opts.min_gain) {
      // Revert the round: restore labels and volumes.
      parallel_for(nv, [&](std::int64_t v) {
        const auto vi = static_cast<std::size_t>(v);
        if (labels[vi] == backup[vi]) return;
        std::atomic_ref<double>(comm_vol[static_cast<std::size_t>(labels[vi])])
            .fetch_add(-vertex_vol[vi], std::memory_order_relaxed);
        std::atomic_ref<double>(comm_vol[static_cast<std::size_t>(backup[vi])])
            .fetch_add(vertex_vol[vi], std::memory_order_relaxed);
        labels[vi] = backup[vi];
      });
      break;
    }
    stats.modularity_after = q;
    stats.moves += applied;
    stats.rounds = round + 1;
  }

  // Re-densify labels.
  std::vector<V> dense(static_cast<std::size_t>(nv), kNoVertex<V>);
  V next = 0;
  for (std::int64_t v = 0; v < nv; ++v) {
    auto& d = dense[static_cast<std::size_t>(labels[static_cast<std::size_t>(v)])];
    if (d == kNoVertex<V>) d = next++;
  }
  parallel_for(nv, [&](std::int64_t v) {
    const auto vi = static_cast<std::size_t>(v);
    labels[vi] = dense[static_cast<std::size_t>(labels[vi])];
  });
  return stats;
}

}  // namespace commdet
