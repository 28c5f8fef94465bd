// The paper's *original* contraction method, kept as the ablation
// baseline (Sec. IV-C).
//
// "Our prior implementation used a technique due to John T. Feo where
// edges are associated to linked lists by a hash of the vertices.  After
// relabeling an edge's vertices to their new vertex numbers, the
// associated linked list is searched for that edge.  If it exists, the
// weights are added.  If not, the edge is appended to the list.  This
// needs only |E| + |V| additional storage but relies heavily on the Cray
// XMT's full/empty bits [...].  The amount of locking and overhead in
// iterating over massive, dynamically changing linked lists rendered a
// similar implementation on Intel-based platforms using OpenMP
// infeasible."
//
// This is that locking OpenMP rendition: an open hash table of chained
// edge nodes, one spinlock per slot standing in for the full/empty bits.
// It produces identical graphs to BucketSortContractor (buckets are
// sorted on output so downstream invariants hold); it exists so the
// ablation benchmark can measure what the bucket-sort rewrite buys.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "commdet/contract/bucket_sort_contractor.hpp"  // ContractionResult
#include "commdet/contract/label_contractor.hpp"
#include "commdet/contract/relabel.hpp"
#include "commdet/graph/community_graph.hpp"
#include "commdet/match/matching.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/prefix_sum.hpp"
#include "commdet/util/rng.hpp"
#include "commdet/util/spinlock.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

template <VertexId V>
class HashChainContractor {
 public:
  [[nodiscard]] ContractionResult<V> contract(const CommunityGraph<V>& g,
                                              const Matching<V>& m) const {
    auto rel = relabel_matched(g, m);
    const EdgeId ne = g.num_edges();
    const auto new_nv = static_cast<std::int64_t>(rel.new_nv);

    CommunityGraph<V> out;
    out.nv = rel.new_nv;
    out.volume = std::move(rel.volume);
    out.self_weight = std::move(rel.self_weight);
    out.total_weight = g.total_weight;

    // Chained hash table over (first, second) keys.
    const std::size_t slots =
        std::bit_ceil(static_cast<std::size_t>(std::max<EdgeId>(2 * ne, 16)));
    const std::size_t mask = slots - 1;
    std::vector<EdgeId> head(slots, EdgeId{-1});
    SpinlockTable slot_locks(slots);

    std::vector<EdgeId> next(static_cast<std::size_t>(ne), EdgeId{-1});
    std::vector<V> node_first(static_cast<std::size_t>(ne));
    std::vector<V> node_second(static_cast<std::size_t>(ne));
    std::vector<Weight> node_weight(static_cast<std::size_t>(ne));
    std::atomic<EdgeId> node_cursor{0};

    parallel_for(ne, [&](std::int64_t e) {
      const auto i = static_cast<std::size_t>(e);
      const V a = rel.new_label[static_cast<std::size_t>(g.efirst[i])];
      const V b = rel.new_label[static_cast<std::size_t>(g.esecond[i])];
      if (a == b) {
        std::atomic_ref<Weight>(out.self_weight[static_cast<std::size_t>(a)])
            .fetch_add(g.eweight[i], std::memory_order_relaxed);
        return;
      }
      const auto [f, s] = hashed_edge_order(a, b);
      const std::size_t slot =
          static_cast<std::size_t>(mix64((static_cast<std::uint64_t>(f) << 32) ^
                                         static_cast<std::uint64_t>(s))) &
          mask;
      SpinlockGuard guard(slot_locks, slot);
      // Walk the chain; identical keys always land in the same slot, so
      // the whole search-or-append is atomic under the slot lock.
      for (EdgeId node = head[slot]; node != -1; node = next[static_cast<std::size_t>(node)]) {
        const auto n = static_cast<std::size_t>(node);
        if (node_first[n] == f && node_second[n] == s) {
          node_weight[n] += g.eweight[i];
          return;
        }
      }
      const EdgeId node = node_cursor.fetch_add(1, std::memory_order_relaxed);
      const auto n = static_cast<std::size_t>(node);
      node_first[n] = f;
      node_second[n] = s;
      node_weight[n] = g.eweight[i];
      next[n] = head[slot];
      head[slot] = node;
    });

    // Gather nodes into contiguous per-vertex buckets.
    const EdgeId final_ne = node_cursor.load();
    std::vector<EdgeId> counts(static_cast<std::size_t>(new_nv) + 1, 0);
    parallel_for(final_ne, [&](std::int64_t k) {
      std::atomic_ref<EdgeId>(
          counts[static_cast<std::size_t>(node_first[static_cast<std::size_t>(k)])])
          .fetch_add(1, std::memory_order_relaxed);
    });
    exclusive_prefix_sum(std::span<EdgeId>(counts));
    std::vector<EdgeId> cursor(counts.begin(), counts.end() - 1);

    out.efirst.resize(static_cast<std::size_t>(final_ne));
    out.esecond.resize(static_cast<std::size_t>(final_ne));
    out.eweight.resize(static_cast<std::size_t>(final_ne));
    parallel_for(final_ne, [&](std::int64_t k) {
      const auto n = static_cast<std::size_t>(k);
      const EdgeId at = std::atomic_ref<EdgeId>(cursor[static_cast<std::size_t>(node_first[n])])
                            .fetch_add(1, std::memory_order_relaxed);
      out.efirst[static_cast<std::size_t>(at)] = node_first[n];
      out.esecond[static_cast<std::size_t>(at)] = node_second[n];
      out.eweight[static_cast<std::size_t>(at)] = node_weight[n];
    });

    out.bucket_begin.assign(counts.begin(), counts.end() - 1);
    out.bucket_end.assign(static_cast<std::size_t>(new_nv), 0);
    parallel_for(new_nv, [&](std::int64_t v) {
      out.bucket_end[static_cast<std::size_t>(v)] = counts[static_cast<std::size_t>(v) + 1];
    });

    // Library invariant: buckets sorted by second vertex.  This shares
    // the kernel's pass 3, so the ablation's timings include it, and its
    // cost moves with that pass (dense-key buckets skip the sort).  Keys
    // are already unique, so no bucket shortens.
    sort_and_accumulate_buckets<V>(std::span<const EdgeId>(counts), 0,
                                   std::span<V>(out.esecond), std::span<Weight>(out.eweight));

    return {std::move(out), std::move(rel.new_label)};
  }
};

}  // namespace commdet
