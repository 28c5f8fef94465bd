// Label-keyed contraction: collapses a graph by an arbitrary dense
// labeling.  This is the library's one contraction kernel.
//
// It is the paper's bucket-sort contraction (Sec. IV-C) generalized from
// "each community absorbs at most one partner" to "any vertex ->
// community map": counting pass, scatter into first-vertex buckets,
// per-bucket sort-and-accumulate, contiguous copy-back.  The count and
// scatter run over chunk-private histograms rather than the paper's
// per-edge fetch-and-add.  The per-bucket step sorts only buckets whose
// keys are spread wide; a bucket whose keys fall within a few words per
// entry is accumulated by key into a dense array and read back through
// a bitmap, in key order.  Every placement invariant of CommunityGraph
// (hashed edge order, sorted buckets) holds by construction.
//
// Every unsharded contraction runs it: the per-level matching
// contractor (BucketSortContractor relabels the matching and calls
// it), the dyn/ warm start (contract the surviving assignment into a
// seeded community graph) and the parallel Louvain backend (aggregate a
// level's local-move labeling into the next coarser graph).  The
// per-bucket sort-and-accumulate step is also the sort step of the
// sharded contraction (shard/shard_contract.hpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "commdet/graph/community_graph.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/prefix_sum.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

/// What sort_and_accumulate_buckets produced: each bucket's shortened
/// length, and how many buckets took the dense-key path.
struct BucketAccumulation {
  std::vector<EdgeId> new_len;
  std::int64_t dense_buckets = 0;
};

/// Pass 3 of every bucket-sort contraction: bucket v holds the
/// (second; weight) entries [off[v] - base, off[v + 1] - base) of
/// `second` / `weight` (`off` has one entry more than there are
/// buckets).  Orders each bucket by second vertex and sums duplicate
/// seconds in place, shortening it.  The canonical layout does not
/// depend on the order the entries were scattered in.
///
/// A bucket whose keys span few 64-bit words for its length (at most
/// n * floor(log2 n) words for n entries) is accumulated by key instead
/// of sorted: weights add into a per-thread dense array offset to the
/// bucket's lowest word, a per-thread bitmap marks the keys present, and
/// one in-order scan of the bitmap words emits (key, sum) and clears
/// both.  Keys come out ascending and the sums are integers, so the
/// result equals the sort's; the choice depends only on the bucket.
template <VertexId V>
BucketAccumulation sort_and_accumulate_buckets(std::span<const EdgeId> off, EdgeId base,
                                               std::span<V> second,
                                               std::span<Weight> weight) {
  const auto nb = static_cast<std::int64_t>(off.size()) - 1;
  BucketAccumulation result;
  result.new_len.assign(static_cast<std::size_t>(nb), 0);
  auto& new_len = result.new_len;
  std::int64_t dense_buckets = 0;
  ExceptionCollector errors;
#pragma omp parallel reduction(+ : dense_buckets)
  {
    std::vector<std::pair<V, Weight>> scratch;
    std::vector<Weight> acc;            // acc[key - origin], all zero between buckets
    std::vector<std::uint64_t> present;  // bit (key - origin), all clear between buckets
#pragma omp for schedule(dynamic, 64)
    for (std::int64_t v = 0; v < nb; ++v) {
      if (errors.armed()) continue;
      errors.run([&] {
        const EdgeId bb = off[static_cast<std::size_t>(v)] - base;
        const EdgeId be = off[static_cast<std::size_t>(v) + 1] - base;
        const EdgeId n = be - bb;
        new_len[static_cast<std::size_t>(v)] = n;
        if (n < 2) return;

        V lo = second[static_cast<std::size_t>(bb)];
        V hi = lo;
        for (EdgeId k = bb + 1; k < be; ++k) {
          const V s = second[static_cast<std::size_t>(k)];
          lo = std::min(lo, s);
          hi = std::max(hi, s);
        }
        const std::int64_t first_word = static_cast<std::int64_t>(lo) >> 6;
        const std::int64_t words = (static_cast<std::int64_t>(hi) >> 6) - first_word + 1;
        EdgeId w = bb;  // write cursor back into the bucket
        const auto log2n =
            static_cast<std::int64_t>(std::bit_width(static_cast<std::uint64_t>(n))) - 1;
        if (words <= n * log2n) {
          ++dense_buckets;
          const std::int64_t origin = first_word << 6;
          const auto nwords = static_cast<std::size_t>(words);
          if (present.size() < nwords) {
            present.resize(nwords, 0);
            acc.resize(nwords * 64, 0);
          }
          for (EdgeId k = bb; k < be; ++k) {
            const auto key = static_cast<std::size_t>(
                static_cast<std::int64_t>(second[static_cast<std::size_t>(k)]) - origin);
            acc[key] += weight[static_cast<std::size_t>(k)];
            present[key >> 6] |= std::uint64_t{1} << (key & 63);
          }
          for (std::size_t word = 0; word < nwords; ++word) {
            for (auto bits = std::exchange(present[word], 0); bits != 0; bits &= bits - 1) {
              const std::size_t key = (word << 6) + std::countr_zero(bits);
              second[static_cast<std::size_t>(w)] =
                  static_cast<V>(origin + static_cast<std::int64_t>(key));
              weight[static_cast<std::size_t>(w)] = std::exchange(acc[key], 0);
              ++w;
            }
          }
        } else {
          scratch.clear();
          for (EdgeId k = bb; k < be; ++k)
            scratch.emplace_back(second[static_cast<std::size_t>(k)],
                                 weight[static_cast<std::size_t>(k)]);
          std::sort(scratch.begin(), scratch.end(),
                    [](const auto& x, const auto& y) { return x.first < y.first; });
          for (std::size_t r = 0; r < scratch.size(); ++r) {
            if (r > 0 && scratch[r].first == second[static_cast<std::size_t>(w - 1)]) {
              weight[static_cast<std::size_t>(w - 1)] += scratch[r].second;
            } else {
              second[static_cast<std::size_t>(w)] = scratch[r].first;
              weight[static_cast<std::size_t>(w)] = scratch[r].second;
              ++w;
            }
          }
        }
        new_len[static_cast<std::size_t>(v)] = w - bb;
      });
    }
  }
  errors.rethrow_if_armed();
  result.dense_buckets = dense_buckets;
  return result;
}

/// Caller-owned storage that successive contractions recycle.  A fresh
/// edge array larger than glibc's mmap threshold (32 MB) is mapped anew
/// and page-faulted on first touch at every level; reusing the previous
/// level's arrays skips both the faults and the single-threaded value
/// initialization.  `spare` is a retired graph (typically the input of
/// the previous level) whose arrays the next output takes over; the
/// scatter scratch keeps its capacity from one contraction to the next.
template <VertexId V>
struct ContractionBuffers {
  std::vector<V> scatter_second;
  std::vector<Weight> scatter_weight;
  CommunityGraph<V> spare;

  /// Bytes held between contractions (capacities, not sizes).
  [[nodiscard]] std::int64_t retained_bytes() const noexcept {
    const auto bytes = [](const auto& v) {
      return static_cast<std::int64_t>(v.capacity() * sizeof(v[0]));
    };
    return bytes(scatter_second) + bytes(scatter_weight) + bytes(spare.bucket_begin) +
           bytes(spare.bucket_end) + bytes(spare.self_weight) + bytes(spare.volume) +
           bytes(spare.efirst) + bytes(spare.esecond) + bytes(spare.eweight);
  }
};

namespace detail {

/// Sizes `v` to `n` for a pass that overwrites every element.  Within
/// the recycled capacity this initializes at most the grown tail; past
/// it the old contents are dropped first rather than copied.
template <typename T>
void resize_for_overwrite(std::vector<T>& v, std::size_t n) {
  if (v.capacity() < n) v = std::vector<T>();
  v.resize(n);
}

}  // namespace detail

/// Contracts `base` by the dense labeling `labels` (values in
/// [0, num_labels)): every label class becomes one vertex carrying its
/// members' collapsed internal weight as a self-loop; volumes and total
/// weight are preserved exactly (both are additive under contraction).
/// Weights are integers, so the output is bit-identical at any thread
/// count, and it does not depend on what `buffers` held.  The output
/// takes over `buffers.spare`'s arrays (which must not be `base`'s);
/// the scatter scratch stays in `buffers` for the next call.
template <VertexId V>
[[nodiscard]] CommunityGraph<V> contract_by_labels(const CommunityGraph<V>& base,
                                                   std::span<const V> labels,
                                                   std::int64_t num_labels,
                                                   ContractionBuffers<V>& buffers) {
  const auto nv = static_cast<std::int64_t>(base.nv);
  const EdgeId ne = base.num_edges();

  CommunityGraph<V> out = std::exchange(buffers.spare, CommunityGraph<V>{});
  out.nv = static_cast<V>(num_labels);
  out.total_weight = base.total_weight;
  out.volume.assign(static_cast<std::size_t>(num_labels), 0);
  out.self_weight.assign(static_cast<std::size_t>(num_labels), 0);

  obs::ScopedSpan count_span("contract.count");
  count_span.attr("edges", static_cast<std::int64_t>(ne));

  // Per-vertex state is additive under contraction: volumes scatter-add,
  // member self-loops fold into the community self weight.
  parallel_for(nv, [&](std::int64_t v) {
    const auto vi = static_cast<std::size_t>(v);
    const auto c = static_cast<std::size_t>(labels[vi]);
    std::atomic_ref<Weight>(out.volume[c])
        .fetch_add(base.volume[vi], std::memory_order_relaxed);
    if (base.self_weight[vi] > 0)
      std::atomic_ref<Weight>(out.self_weight[c])
          .fetch_add(base.self_weight[vi], std::memory_order_relaxed);
  });

  // Passes 1-2: count surviving (cross-community) edges per first
  // bucket, then scatter (second; weight) into the buckets.  Per-edge
  // atomic fetch-adds on shared counters (the paper's formulation)
  // serialize wherever placements pile onto few targets — every
  // intra-community edge of a big class folds into one self-weight slot,
  // and hub buckets draw millions of placements — and cost a locked
  // read-modify-write per edge even when they do not.  Instead the edge
  // range is cut into chunks with private histograms; a per-bucket
  // prefix over the chunks turns them into private cursors, and the
  // scatter runs without a single atomic.  The chunk count is capped at
  // ne / num_labels, so the histograms hold at most one count and one
  // self-weight slot per input edge whatever the thread count.
  const std::int64_t nchunks = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(ne) / std::max<std::int64_t>(num_labels, 1), 1,
      std::max(1, omp_get_max_threads()));
  const auto chunk_begin = [&](std::int64_t c) {
    return static_cast<EdgeId>((static_cast<std::int64_t>(ne) * c) / nchunks);
  };
  std::vector<std::vector<EdgeId>> chunk_count(static_cast<std::size_t>(nchunks));
  std::vector<std::vector<Weight>> chunk_self(static_cast<std::size_t>(nchunks));
  parallel_for_dynamic(nchunks, [&](std::int64_t c) {
    auto& cnt = chunk_count[static_cast<std::size_t>(c)];
    auto& slf = chunk_self[static_cast<std::size_t>(c)];
    cnt.assign(static_cast<std::size_t>(num_labels), 0);
    slf.assign(static_cast<std::size_t>(num_labels), 0);
    const EdgeId ee = chunk_begin(c + 1);
    for (EdgeId i = chunk_begin(c); i < ee; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      const V a = labels[static_cast<std::size_t>(base.efirst[ii])];
      const V b = labels[static_cast<std::size_t>(base.esecond[ii])];
      if (a == b) {
        slf[static_cast<std::size_t>(a)] += base.eweight[ii];
        continue;
      }
      const auto [f, s] = hashed_edge_order(a, b);
      ++cnt[static_cast<std::size_t>(f)];
    }
  }, /*chunk=*/1);

  // Per-bucket reduction: bucket totals, chunk-local cursor prefixes,
  // and the folded self weights, one parallel sweep over the buckets.
  std::vector<EdgeId> counts(static_cast<std::size_t>(num_labels) + 1, 0);
  parallel_for(num_labels, [&](std::int64_t b) {
    const auto bi = static_cast<std::size_t>(b);
    EdgeId total = 0;
    Weight sw = 0;
    for (std::int64_t c = 0; c < nchunks; ++c) {
      auto& cnt = chunk_count[static_cast<std::size_t>(c)];
      const EdgeId here = cnt[bi];
      cnt[bi] = total;  // becomes the chunk's private cursor base
      total += here;
      sw += chunk_self[static_cast<std::size_t>(c)][bi];
    }
    counts[bi] = total;
    out.self_weight[bi] += sw;
  });
  chunk_self.clear();  // released before the scatter scratch is allocated

  const EdgeId live = exclusive_prefix_sum(std::span<EdgeId>(counts));
  count_span.close();

  obs::ScopedSpan scatter_span("contract.scatter");
  scatter_span.attr("edges", static_cast<std::int64_t>(live));
  auto& tmp_second = buffers.scatter_second;
  auto& tmp_weight = buffers.scatter_weight;
  detail::resize_for_overwrite(tmp_second, static_cast<std::size_t>(live));
  detail::resize_for_overwrite(tmp_weight, static_cast<std::size_t>(live));
  parallel_for_dynamic(nchunks, [&](std::int64_t c) {
    auto& cur = chunk_count[static_cast<std::size_t>(c)];
    const EdgeId ee = chunk_begin(c + 1);
    for (EdgeId i = chunk_begin(c); i < ee; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      const V a = labels[static_cast<std::size_t>(base.efirst[ii])];
      const V b = labels[static_cast<std::size_t>(base.esecond[ii])];
      if (a == b) continue;
      const auto [f, s] = hashed_edge_order(a, b);
      const auto fi = static_cast<std::size_t>(f);
      const EdgeId at = counts[fi] + cur[fi]++;
      tmp_second[static_cast<std::size_t>(at)] = s;
      tmp_weight[static_cast<std::size_t>(at)] = base.eweight[ii];
    }
  }, /*chunk=*/1);
  chunk_count.clear();
  scatter_span.close();

  // Pass 3: order each bucket by second vertex, accumulating duplicates
  // (sorted, or accumulated by key when the bucket's keys are packed).
  obs::ScopedSpan sort_span("contract.sort");
  sort_span.attr("edges", static_cast<std::int64_t>(live));
  const auto accumulated = sort_and_accumulate_buckets<V>(
      std::span<const EdgeId>(counts), 0, std::span<V>(tmp_second),
      std::span<Weight>(tmp_weight));
  const auto& new_len = accumulated.new_len;
  sort_span.attr("dense_buckets", accumulated.dense_buckets);
  sort_span.close();

  // Pass 4: copy the shortened buckets out contiguously, filling in the
  // implicit first vertex.
  obs::ScopedSpan copy_span("contract.copy");
  std::vector<EdgeId> final_off(new_len.begin(), new_len.end());
  final_off.push_back(0);
  const EdgeId final_ne = exclusive_prefix_sum(std::span<EdgeId>(final_off));
  copy_span.attr("edges", static_cast<std::int64_t>(final_ne));
  detail::resize_for_overwrite(out.efirst, static_cast<std::size_t>(final_ne));
  detail::resize_for_overwrite(out.esecond, static_cast<std::size_t>(final_ne));
  detail::resize_for_overwrite(out.eweight, static_cast<std::size_t>(final_ne));
  parallel_for_dynamic(num_labels, [&](std::int64_t v) {
    const EdgeId src = counts[static_cast<std::size_t>(v)];
    const EdgeId dst = final_off[static_cast<std::size_t>(v)];
    const EdgeId len = new_len[static_cast<std::size_t>(v)];
    for (EdgeId k = 0; k < len; ++k) {
      out.efirst[static_cast<std::size_t>(dst + k)] = static_cast<V>(v);
      out.esecond[static_cast<std::size_t>(dst + k)] =
          tmp_second[static_cast<std::size_t>(src + k)];
      out.eweight[static_cast<std::size_t>(dst + k)] =
          tmp_weight[static_cast<std::size_t>(src + k)];
    }
  });

  out.bucket_begin.assign(final_off.begin(), final_off.end() - 1);
  out.bucket_end.assign(static_cast<std::size_t>(num_labels), 0);
  parallel_for(num_labels, [&](std::int64_t v) {
    out.bucket_end[static_cast<std::size_t>(v)] =
        final_off[static_cast<std::size_t>(v)] + new_len[static_cast<std::size_t>(v)];
  });
  return out;
}

/// contract_by_labels with fresh storage, for callers that contract
/// once (dyn/ warm start) or keep no retired graph (Louvain).
template <VertexId V>
[[nodiscard]] CommunityGraph<V> contract_by_labels(const CommunityGraph<V>& base,
                                                   std::span<const V> labels,
                                                   std::int64_t num_labels) {
  ContractionBuffers<V> fresh;
  return contract_by_labels(base, labels, num_labels, fresh);
}

}  // namespace commdet
