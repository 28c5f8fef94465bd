// Sharded contraction: the label contraction kernel
// (contract/label_contractor.hpp) run block by block, merging into a
// re-sharded coarser ShardedGraph — exchange points 3 and 4 of the
// protocol in DESIGN.md.
//
// Count: count_label_range runs over every source block once, with the
// whole label space as its window: edges inside a new community fold
// into its self weight, survivors are counted toward their new
// hashed-first bucket.  The resulting global bucket-size prefix both
// places every coarse edge and fixes the NEW ownership cuts (the coarse
// graph is re-balanced and its shard count shrinks as the graph
// coarsens — a K-shard graph never contracts into more than K shards).
// In a multi-node port this prefix is the one all-to-all of the step:
// each coarse edge is routed to the shard that owns its new first
// endpoint.
//
// Scatter, sort, copy: per group of destination shards, each source
// block is counted again over the group's bucket window and scattered
// into it; the window's running cursors carry each bucket's fill from
// one block to the next.  Then the kernel's per-bucket
// sort-and-accumulate runs and copy_out_buckets lays out each
// destination block.  With spill enabled a group is one destination
// shard — the source blocks are re-read once per destination — so the
// working set stays at one source block + one destination shard.
// Without spill a single group covers every destination.  A group of
// one block is scattered straight into that block's (second, weight)
// arrays and compacted in place, as contract_by_labels does; a group of
// several blocks scatters into a group scratch the blocks copy out of.
// Either way the per-bucket sort canonicalizes the layout, so spill
// on/off and every shard count produce bit-identical graphs; at K=1 the
// result equals contract_by_labels' output exactly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "commdet/contract/label_contractor.hpp"
#include "commdet/contract/relabel.hpp"
#include "commdet/match/matching.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/shard/sharded_graph.hpp"
#include "commdet/util/prefix_sum.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

template <VertexId V>
struct ShardedContractionResult {
  ShardedGraph<V> graph;
  std::vector<V> new_label;    // old community -> new community
  std::int64_t fresh_bytes = 0;  // capacity of the arrays the contraction sized
};

/// Contracts a sharded graph by the dense labeling `labels` (values in
/// [0, num_labels)) — contract_by_labels block by block.  Used for the
/// per-level matching contraction and the dyn warm start.  Adds to
/// `fresh_bytes`, when given, the capacity of every array it sizes.
template <VertexId V>
[[nodiscard]] ShardedGraph<V> contract_sharded_assignment(ShardedGraph<V>& sg,
                                                          std::span<const V> labels,
                                                          std::int64_t num_labels,
                                                          std::int64_t* fresh_bytes = nullptr) {
  const auto n = static_cast<std::size_t>(num_labels);
  ShardedGraph<V> out;
  out.nv = static_cast<V>(num_labels);
  out.total_weight = sg.total_weight;
  out.spill = sg.spill;
  out.self_weight.assign(n, 0);
  out.volume.assign(n, 0);
  std::int64_t fresh = 0;
  const auto sized = [&fresh](const auto&... arrays) {
    fresh += (static_cast<std::int64_t>(arrays.capacity() * sizeof(arrays[0])) + ...);
  };
  sized(out.self_weight, out.volume);

  // Count: per-coarse-bucket sizes over every source block.
  obs::ScopedSpan count_span("contract.count");
  fold_vertex_state(sg, labels, std::span<Weight>(out.self_weight),
                    std::span<Weight>(out.volume));
  std::vector<EdgeId> cum(n + 1, 0);
  EdgeId edges_in = 0;
  std::int64_t folded = 0;
  for_each_edge_range(sg, [&](const ShardBlock<V>& b) {
    edges_in += b.num_edges();
    folded += count_label_range(b, labels, V{0}, out.nv, std::span<EdgeId>(cum).first(n),
                                std::span<Weight>(out.self_weight))
                  .folded;
  });
  count_span.attr("edges", static_cast<std::int64_t>(edges_in));
  exclusive_prefix_sum(std::span<EdgeId>(cum));
  count_span.close();

  // Re-shard: new cuts balanced on the coarse bucket prefix.
  const int k_new = static_cast<int>(std::min<std::int64_t>(
      sg.num_shards(), std::max<std::int64_t>(num_labels, 1)));
  const auto cuts = detail::balanced_shard_cuts<V>(std::span<const EdgeId>(cum), k_new);
  out.shards.resize(static_cast<std::size_t>(k_new));
  for (int s = 0; s < k_new; ++s) {
    out.shards[static_cast<std::size_t>(s)].lo = cuts[static_cast<std::size_t>(s)];
    out.shards[static_cast<std::size_t>(s)].hi = cuts[static_cast<std::size_t>(s) + 1];
  }

  // Grouped by destination.  Spill: one destination shard per group
  // (bounded working set, source blocks re-read per group); in-core: one
  // group for everything.
  EdgeId edges_out = 0;
  EdgeId scratch_edges = 0;  // staged in a multi-block group's scratch
  const int group_step = out.spill.enabled ? 1 : k_new;
  for (int gs = 0; gs < k_new; gs += group_step) {
    const int ge = std::min(gs + group_step, k_new);
    const V glo = out.shards[static_cast<std::size_t>(gs)].lo;
    const V ghi = out.shards[static_cast<std::size_t>(ge) - 1].hi;
    const auto gspan = static_cast<std::size_t>(ghi - glo);
    if (gspan == 0) continue;
    const auto off =
        std::span<const EdgeId>(cum).subspan(static_cast<std::size_t>(glo), gspan + 1);
    const EdgeId base = off.front();
    const EdgeId gcount = off.back() - base;

    // Scatter this group's coarse edges from every source block —
    // exchange point 3: in a multi-node port each placement is an edge
    // message to the new owner.  A one-block group scatters into the
    // block itself.
    obs::ScopedSpan scatter_span("contract.scatter");
    scatter_span.attr("edges", static_cast<std::int64_t>(gcount));
    BigVector<V> group_second;
    BigVector<Weight> group_weight;
    auto& into = out.shards[static_cast<std::size_t>(gs)];
    const bool one_block = ge - gs == 1;
    BigVector<V>& second = one_block ? into.esecond : group_second;
    BigVector<Weight>& weight = one_block ? into.eweight : group_weight;
    second.resize(static_cast<std::size_t>(gcount));
    weight.resize(static_cast<std::size_t>(gcount));
    if (!one_block) {
      sized(second, weight);
      scratch_edges += gcount;
    }
    std::vector<EdgeId> running(gspan, 0);
    for_each_edge_range(sg, [&](const ShardBlock<V>& b) {
      auto chunks = count_label_range(b, labels, glo, ghi, std::span<EdgeId>(running),
                                      std::span<Weight>{});
      scatter_label_range(b, labels, chunks, off, base, std::span<V>(second),
                          std::span<Weight>(weight));
    });
    scatter_span.close();

    // The per-bucket canonicalization is what makes the output
    // independent of scatter order, grouping, and shard count.
    obs::ScopedSpan sort_span("contract.sort");
    sort_span.attr("edges", static_cast<std::int64_t>(gcount));
    const auto accumulated = sort_and_accumulate_buckets<V>(
        off, base, std::span<V>(second), std::span<Weight>(weight));
    sort_span.attr("dense_buckets", accumulated.dense_buckets);
    sort_span.close();

    obs::ScopedSpan copy_span("contract.copy");
    EdgeId group_out = 0;
    for (int ds = gs; ds < ge; ++ds) {
      auto& blk = out.shards[static_cast<std::size_t>(ds)];
      const auto at = static_cast<std::size_t>(blk.lo - glo);
      const auto owned = static_cast<std::size_t>(blk.hi - blk.lo);
      const auto len = std::span<const EdgeId>(accumulated.new_len).subspan(at, owned);
      blk.ne = copy_out_buckets(off.subspan(at, owned), base, len, std::span<const V>(second),
                                std::span<const Weight>(weight), blk.lo, blk);
      sized(blk.bucket_begin, blk.bucket_end, blk.efirst, blk.esecond, blk.eweight);
      group_out += blk.ne;
      out.release(ds);
    }
    copy_span.attr("edges", static_cast<std::int64_t>(group_out));
    edges_out += group_out;
  }

  if (fresh_bytes != nullptr) *fresh_bytes += fresh;
  if (obs::Counter* c = obs::counter("contract.self_edges_folded")) c->add(folded);
  if (obs::Counter* c = obs::counter("contract.edges_in")) c->add(edges_in);
  if (obs::Counter* c = obs::counter("contract.edges_out")) c->add(edges_out);
  if (obs::Counter* c = obs::counter("contract.scratch_bytes_moved")) {
    const auto per_edge = static_cast<std::int64_t>(sizeof(V) + sizeof(Weight));
    c->add(2 * per_edge * static_cast<std::int64_t>(scratch_edges));
  }
  return out;
}

/// Matching-driven contraction: dense relabeling of matched pairs
/// (matching_labels, the convention every matching contractor shares;
/// the leader-count prefix is exchange point 4), then the label
/// contraction.
template <VertexId V>
[[nodiscard]] ShardedContractionResult<V> contract_sharded(ShardedGraph<V>& sg,
                                                           const Matching<V>& m) {
  auto labels = matching_labels(m);
  ShardedContractionResult<V> out;
  out.graph = contract_sharded_assignment(sg, std::span<const V>(labels.label),
                                          static_cast<std::int64_t>(labels.num_labels),
                                          &out.fresh_bytes);
  out.new_label = std::move(labels.label);
  return out;
}

}  // namespace commdet
