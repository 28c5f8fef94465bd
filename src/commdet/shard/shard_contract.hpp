// Sharded contraction: the paper's bucket-sort contraction run as
// shard-local passes whose outputs merge into a re-sharded coarser
// ShardedGraph — exchange points 3 and 4 of the protocol in DESIGN.md.
//
// Pass A sweeps every source block once, relabeling endpoints: edges
// inside a new community fold into its self weight, survivors are
// counted toward their new hashed-first bucket.  The resulting global
// bucket-size prefix both places every coarse edge and fixes the NEW
// ownership cuts (the coarse graph is re-balanced and its shard count
// shrinks as the graph coarsens — a K-shard graph never contracts into
// more than K shards).  In a multi-node port this prefix is the one
// all-to-all of the step: each coarse edge is routed to the shard that
// owns its new first endpoint.
//
// Pass B scatters the surviving (second; weight) entries into the new
// buckets and runs the per-bucket sort-and-accumulate.  With spill
// enabled it processes one DESTINATION shard at a time — re-reading the
// source blocks once per destination — so the working set stays at one
// source block + one destination shard's scratch; without spill a
// single pass matches BucketSortContractor's |E|-ish scratch budget.
// Either way the per-bucket sort canonicalizes the layout, so spill
// on/off and every shard count produce bit-identical graphs; at K=1 the
// result equals BucketSortContractor's output exactly.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "commdet/contract/label_contractor.hpp"
#include "commdet/contract/relabel.hpp"
#include "commdet/match/matching.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/shard/sharded_graph.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/prefix_sum.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

template <VertexId V>
struct ShardedContractionResult {
  ShardedGraph<V> graph;
  std::vector<V> new_label;  // old community -> new community
};

/// Label-keyed kernel.  `new_self` / `new_volume` carry the aggregated
/// per-vertex state (relabel convention: volumes final, self weights
/// pre-edge-pass — intra-community edge weights are folded here, in
/// pass A, exactly once).
template <VertexId V>
[[nodiscard]] ShardedGraph<V> contract_sharded_by_labels(ShardedGraph<V>& sg,
                                                         std::span<const V> new_label,
                                                         V new_nv,
                                                         std::vector<Weight> new_self,
                                                         std::vector<Weight> new_volume) {
  const auto n_new = static_cast<std::int64_t>(new_nv);

  obs::Counter* c_self_folded = obs::counter("contract.self_edges_folded");
  obs::Counter* c_edges_in = obs::counter("contract.edges_in");
  obs::Counter* c_edges_out = obs::counter("contract.edges_out");
  obs::Counter* c_bytes = obs::counter("contract.scratch_bytes_moved");

  // Pass A: per-coarse-bucket counting; intra-community folds.
  std::vector<EdgeId> cum(static_cast<std::size_t>(n_new) + 1, 0);
  EdgeId edges_in = 0;
  for (int s = 0; s < sg.num_shards(); ++s) {
    BlockLease<V> lease(sg, s);
    const auto& b = lease.block();
    edges_in += b.num_edges();
    parallel_for(b.num_edges(), [&](std::int64_t e) {
      const auto i = static_cast<std::size_t>(e);
      const V a = new_label[static_cast<std::size_t>(b.efirst[i])];
      const V c = new_label[static_cast<std::size_t>(b.esecond[i])];
      if (a == c) {
        std::atomic_ref<Weight>(new_self[static_cast<std::size_t>(a)])
            .fetch_add(b.eweight[i], std::memory_order_relaxed);
        if (c_self_folded != nullptr) c_self_folded->add(1);
        return;
      }
      const auto [f, s2] = hashed_edge_order(a, c);
      std::atomic_ref<EdgeId>(cum[static_cast<std::size_t>(f)])
          .fetch_add(1, std::memory_order_relaxed);
    });
    lease.close();
  }
  const EdgeId live = exclusive_prefix_sum(std::span<EdgeId>(cum));

  // Re-shard: new cuts balanced on the coarse bucket prefix.
  const int k_new = static_cast<int>(std::min<std::int64_t>(
      sg.num_shards(), std::max<std::int64_t>(n_new, 1)));
  const auto cuts = detail::balanced_shard_cuts<V>(std::span<const EdgeId>(cum), k_new);

  ShardedGraph<V> out;
  out.nv = new_nv;
  out.total_weight = sg.total_weight;
  out.spill = sg.spill;
  out.self_weight = std::move(new_self);
  out.volume = std::move(new_volume);
  out.shards.resize(static_cast<std::size_t>(k_new));
  for (int s = 0; s < k_new; ++s) {
    out.shards[static_cast<std::size_t>(s)].lo = cuts[static_cast<std::size_t>(s)];
    out.shards[static_cast<std::size_t>(s)].hi = cuts[static_cast<std::size_t>(s) + 1];
  }

  // Pass B, grouped by destination.  Spill: one destination shard per
  // group (bounded scratch, source blocks re-read per group); in-core:
  // one group for everything (BucketSortContractor's scratch shape).
  EdgeId edges_out = 0;
  const int group_step = out.spill.enabled ? 1 : k_new;
  for (int gs = 0; gs < k_new; gs += group_step) {
    const int ge = std::min(gs + group_step, k_new);
    const V glo = out.shards[static_cast<std::size_t>(gs)].lo;
    const V ghi = out.shards[static_cast<std::size_t>(ge) - 1].hi;
    const auto gspan = static_cast<std::int64_t>(ghi - glo);
    const EdgeId base = cum[static_cast<std::size_t>(glo)];
    const EdgeId gcount = cum[static_cast<std::size_t>(ghi)] - base;
    if (gspan == 0) continue;

    std::vector<EdgeId> cursor(static_cast<std::size_t>(gspan), 0);
    parallel_for(gspan, [&](std::int64_t v) {
      cursor[static_cast<std::size_t>(v)] =
          cum[static_cast<std::size_t>(glo + static_cast<V>(v))] - base;
    });
    std::vector<V> tmp_second(static_cast<std::size_t>(gcount));
    std::vector<Weight> tmp_weight(static_cast<std::size_t>(gcount));

    // Scatter this group's coarse edges from every source block —
    // exchange point 3: in a multi-node port each placement is an edge
    // message to the new owner.
    for (int s = 0; s < sg.num_shards(); ++s) {
      BlockLease<V> lease(sg, s);
      const auto& b = lease.block();
      parallel_for(b.num_edges(), [&](std::int64_t e) {
        const auto i = static_cast<std::size_t>(e);
        const V a = new_label[static_cast<std::size_t>(b.efirst[i])];
        const V c = new_label[static_cast<std::size_t>(b.esecond[i])];
        if (a == c) return;
        const auto [f, s2] = hashed_edge_order(a, c);
        if (f < glo || f >= ghi) return;
        const EdgeId at =
            std::atomic_ref<EdgeId>(cursor[static_cast<std::size_t>(f - glo)])
                .fetch_add(1, std::memory_order_relaxed);
        tmp_second[static_cast<std::size_t>(at)] = s2;
        tmp_weight[static_cast<std::size_t>(at)] = b.eweight[i];
      });
      lease.close();
    }

    // Per-bucket sort by second and accumulate duplicates in place —
    // the unsharded kernel's pass 3.  This canonicalization is what makes
    // the output independent of scatter order, grouping, and shard count.
    const auto new_len = sort_and_accumulate_buckets<V>(
        std::span<const EdgeId>(cum).subspan(static_cast<std::size_t>(glo),
                                             static_cast<std::size_t>(gspan) + 1),
        base, std::span<V>(tmp_second), std::span<Weight>(tmp_weight)).new_len;

    // Copy the shortened buckets into the destination blocks.
    for (int ds = gs; ds < ge; ++ds) {
      auto& blk = out.shards[static_cast<std::size_t>(ds)];
      const auto owned = static_cast<std::int64_t>(blk.hi - blk.lo);
      std::vector<EdgeId> off(static_cast<std::size_t>(owned) + 1, 0);
      parallel_for(owned, [&](std::int64_t v) {
        off[static_cast<std::size_t>(v)] =
            new_len[static_cast<std::size_t>(blk.lo - glo + static_cast<V>(v))];
      });
      const EdgeId blk_ne = exclusive_prefix_sum(std::span<EdgeId>(off));
      blk.bucket_begin.assign(off.begin(), off.end() - 1);
      blk.bucket_end.assign(static_cast<std::size_t>(owned), 0);
      blk.efirst.resize(static_cast<std::size_t>(blk_ne));
      blk.esecond.resize(static_cast<std::size_t>(blk_ne));
      blk.eweight.resize(static_cast<std::size_t>(blk_ne));
      parallel_for_dynamic(owned, [&](std::int64_t v) {
        const auto vi = static_cast<std::size_t>(v);
        const V vv = blk.lo + static_cast<V>(v);
        const EdgeId src = cum[static_cast<std::size_t>(vv)] - base;
        const EdgeId dst = off[vi];
        const EdgeId len = new_len[static_cast<std::size_t>(vv - glo)];
        blk.bucket_end[vi] = dst + len;
        for (EdgeId k = 0; k < len; ++k) {
          blk.efirst[static_cast<std::size_t>(dst + k)] = vv;
          blk.esecond[static_cast<std::size_t>(dst + k)] =
              tmp_second[static_cast<std::size_t>(src + k)];
          blk.eweight[static_cast<std::size_t>(dst + k)] =
              tmp_weight[static_cast<std::size_t>(src + k)];
        }
      });
      blk.ne = blk_ne;
      blk.refresh_ghosts();
      edges_out += blk_ne;
      out.release(ds);
    }
  }

  if (c_edges_in != nullptr) c_edges_in->add(edges_in);
  if (c_edges_out != nullptr) c_edges_out->add(static_cast<std::int64_t>(edges_out));
  if (c_bytes != nullptr) {
    const auto per_edge = static_cast<std::int64_t>(sizeof(V) + sizeof(Weight));
    c_bytes->add(2 * per_edge * static_cast<std::int64_t>(live));
  }
  return out;
}

/// Assignment-driven contraction for the dyn warm start: collapses an
/// arbitrary dense labeling (values in [0, num_labels)), aggregating
/// per-vertex state by label — the sharded twin of contract_by_labels.
template <VertexId V>
[[nodiscard]] ShardedGraph<V> contract_sharded_assignment(ShardedGraph<V>& sg,
                                                          std::span<const V> labels,
                                                          std::int64_t num_labels) {
  const auto nv = static_cast<std::int64_t>(sg.nv);
  std::vector<Weight> new_self(static_cast<std::size_t>(num_labels), 0);
  std::vector<Weight> new_volume(static_cast<std::size_t>(num_labels), 0);
  parallel_for(nv, [&](std::int64_t v) {
    const auto vi = static_cast<std::size_t>(v);
    const auto c = static_cast<std::size_t>(labels[vi]);
    std::atomic_ref<Weight>(new_volume[c])
        .fetch_add(sg.volume[vi], std::memory_order_relaxed);
    if (sg.self_weight[vi] > 0)
      std::atomic_ref<Weight>(new_self[c])
          .fetch_add(sg.self_weight[vi], std::memory_order_relaxed);
  });
  return contract_sharded_by_labels(sg, labels, static_cast<V>(num_labels),
                                    std::move(new_self), std::move(new_volume));
}

/// Matching-driven contraction: dense relabeling of matched pairs
/// (matching_labels, the convention every matching contractor shares;
/// the leader-count prefix is exchange point 4), then the label-keyed
/// kernel.
template <VertexId V>
[[nodiscard]] ShardedContractionResult<V> contract_sharded(ShardedGraph<V>& sg,
                                                           const Matching<V>& m) {
  auto labels = matching_labels(m);
  auto graph = contract_sharded_assignment(sg, std::span<const V>(labels.label),
                                           static_cast<std::int64_t>(labels.num_labels));
  return {std::move(graph), std::move(labels.label)};
}

}  // namespace commdet
