// Label-keyed contraction: collapses a graph by an arbitrary dense
// labeling.  This is the library's one contraction kernel.
//
// It is the paper's bucket-sort contraction (Sec. IV-C) generalized from
// "each community absorbs at most one partner" to "any vertex ->
// community map": counting pass, scatter into first-vertex buckets,
// per-bucket sort-and-accumulate, and an in-place compaction that closes
// the gaps the accumulation left.  The scatter writes straight into the
// output's (second, weight) arrays, so no graph-sized scratch exists and
// no copy-back pass runs.  The count and scatter run over chunk-private
// histograms rather than the paper's per-edge fetch-and-add.  The
// per-bucket step sorts only buckets whose keys are spread wide; a
// bucket whose keys fall within a few words per entry is accumulated by
// key into a dense array and read back through a bitmap, in key order.
// Every placement invariant of CommunityGraph (hashed edge order, sorted
// and contiguous buckets) holds by construction.
//
// Every contraction runs it: the per-level matching contractor
// (BucketSortContractor relabels the matching and calls it), the dyn/
// warm start (contract the surviving assignment into a seeded community
// graph), the parallel Louvain backend (aggregate a level's local-move
// labeling into the next coarser graph) and the sharded contraction
// (shard/shard_contract.hpp).  Each pass takes one edge range and a
// bucket window, so the sharded path calls the same passes block by
// block: count_label_range carries each bucket's running cursor from
// one block to the next, and copy_out_buckets lays a window out in one
// destination block, in place or from a group's scratch.  Building the
// input graph is the same job under the identity labeling
// (IdentityLabels): graph/builder.hpp and the sharded builder run these
// passes over raw edges, traced as graph.build.* rather than contract.*.
#pragma once

#include <algorithm>
#include <cassert>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <ranges>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "commdet/contract/relabel.hpp"
#include "commdet/graph/community_graph.hpp"
#include "commdet/obs/metrics.hpp"
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
  struct Scratch {  // per thread
    std::vector<std::pair<V, Weight>> sorted;
    std::vector<Weight> acc;             // acc[key - origin], all zero between buckets
    std::vector<std::uint64_t> present;  // bit (key - origin), all clear between buckets
    std::int64_t dense_buckets = 0;
  };
  const auto accumulate = [&](Scratch& scratch, std::int64_t v) {
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
      ++scratch.dense_buckets;
      const std::int64_t origin = first_word << 6;
      const auto nwords = static_cast<std::size_t>(words);
      if (scratch.present.size() < nwords) {
        scratch.present.resize(nwords, 0);
        scratch.acc.resize(nwords * 64, 0);
      }
      for (EdgeId k = bb; k < be; ++k) {
        const auto key = static_cast<std::size_t>(
            static_cast<std::int64_t>(second[static_cast<std::size_t>(k)]) - origin);
        scratch.acc[key] += weight[static_cast<std::size_t>(k)];
        scratch.present[key >> 6] |= std::uint64_t{1} << (key & 63);
      }
      for (std::size_t word = 0; word < nwords; ++word) {
        for (auto bits = std::exchange(scratch.present[word], 0); bits != 0; bits &= bits - 1) {
          const std::size_t key = (word << 6) + std::countr_zero(bits);
          second[static_cast<std::size_t>(w)] =
              static_cast<V>(origin + static_cast<std::int64_t>(key));
          weight[static_cast<std::size_t>(w)] = std::exchange(scratch.acc[key], 0);
          ++w;
        }
      }
    } else {
      scratch.sorted.clear();
      for (EdgeId k = bb; k < be; ++k)
        scratch.sorted.emplace_back(second[static_cast<std::size_t>(k)],
                                    weight[static_cast<std::size_t>(k)]);
      std::sort(scratch.sorted.begin(), scratch.sorted.end(),
                [](const auto& x, const auto& y) { return x.first < y.first; });
      for (std::size_t r = 0; r < scratch.sorted.size(); ++r) {
        if (r > 0 && scratch.sorted[r].first == second[static_cast<std::size_t>(w - 1)]) {
          weight[static_cast<std::size_t>(w - 1)] += scratch.sorted[r].second;
        } else {
          second[static_cast<std::size_t>(w)] = scratch.sorted[r].first;
          weight[static_cast<std::size_t>(w)] = scratch.sorted[r].second;
          ++w;
        }
      }
    }
    new_len[static_cast<std::size_t>(v)] = w - bb;
  };
  for (const Scratch& t : parallel_for_each_thread(nb, dynamic_schedule(64),
                                                   [] { return Scratch{}; }, accumulate))
    result.dense_buckets += t.dense_buckets;
  return result;
}

/// Caller-owned storage that successive contractions recycle.  A fresh
/// edge array larger than glibc's mmap threshold (32 MB) is mapped anew
/// and page-faulted on first touch at every level; reusing the previous
/// level's arrays skips both the faults and the single-threaded value
/// initialization.  `spare` is a retired graph (typically the input of
/// the previous level) whose arrays the next output takes over.
template <VertexId V>
struct ContractionBuffers {
  CommunityGraph<V> spare;

  /// Bytes held between contractions (capacities, not sizes).
  [[nodiscard]] std::int64_t retained_bytes() const noexcept {
    const auto bytes = spare.capacity_bytes();
    return std::accumulate(bytes.begin(), bytes.end(), std::int64_t{0});
  }
};

/// Bytes by which arrays grew their capacity from `before` to `after`
/// (CommunityGraph::capacity_bytes, array by array): the fresh pages a
/// pass that sized them has to touch.
template <std::size_t K>
[[nodiscard]] std::int64_t grown_bytes(const std::array<std::int64_t, K>& before,
                                       const std::array<std::int64_t, K>& after) noexcept {
  std::int64_t grown = 0;
  for (std::size_t i = 0; i < K; ++i) grown += std::max<std::int64_t>(after[i] - before[i], 0);
  return grown;
}

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

/// One edge range cut into `nchunks` contiguous chunks; `cursor[c]`
/// holds chunk c's next slot in each bucket of the window [lo, hi),
/// relative to the bucket's start (count_label_range -> scatter).
template <VertexId V>
struct LabelChunks {
  V lo = 0;
  V hi = 0;
  EdgeId ne = 0;
  std::int64_t nchunks = 1;
  std::vector<std::vector<EdgeId>> cursor;
  std::int64_t folded = 0;  // intra-label edges folded into `self`

  [[nodiscard]] EdgeId chunk_begin(std::int64_t c) const noexcept {
    return static_cast<EdgeId>((static_cast<std::int64_t>(ne) * c) / nchunks);
  }
};

/// The identity labeling, labels[v] == v.  Under it the passes build a
/// graph from an edge range that still holds multi-edges and self-loops.
template <VertexId V>
struct IdentityLabels {
  [[nodiscard]] constexpr V operator[](std::size_t v) const noexcept {
    return static_cast<V>(v);
  }
};

/// Pass 1 over one edge range: relabels both endpoints of every edge
/// (`labels` is a std::span<const V> or IdentityLabels<V>), folds
/// intra-label edges into `self` (one slot per label, or empty for no
/// fold) and counts them in `folded`, and counts each surviving edge
/// toward its hashed-first bucket if that falls in the window [lo, hi).
/// `running[b - lo]`, the entries earlier ranges placed in bucket b, is
/// advanced past this range's.  Counts are chunk-private and each
/// chunk's cursor starts where the previous chunk's ends, so nothing is
/// an atomic: the paper's per-edge fetch-adds serialize wherever
/// placements pile onto one slot (a big class's self weight, a hub's
/// bucket).  At most ne / slots chunks, so the histograms hold at most
/// one entry per edge of the range, or one per window bucket and label.
template <EdgeRange E, typename L, VertexId V>
[[nodiscard]] LabelChunks<V> count_label_range(const E& edges, const L& labels, V lo, V hi,
                                               std::span<EdgeId> running,
                                               std::span<Weight> self) {
  const auto window = static_cast<std::int64_t>(hi - lo);
  const auto nself = static_cast<std::int64_t>(self.size());
  LabelChunks<V> chunks;
  chunks.lo = lo;
  chunks.hi = hi;
  chunks.ne = edges.num_edges();
  chunks.nchunks = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(chunks.ne) / std::max<std::int64_t>({window, nself, 1}), 1,
      parallel_threads());
  chunks.cursor.resize(static_cast<std::size_t>(chunks.nchunks));
  const bool fold = nself > 0;
  std::vector<std::vector<Weight>> chunk_self(fold ? static_cast<std::size_t>(chunks.nchunks)
                                                   : 0);
  std::vector<std::int64_t> chunk_folded(static_cast<std::size_t>(chunks.nchunks), 0);
  parallel_for_dynamic(chunks.nchunks, [&](std::int64_t c) {
    const V wlo = lo;  // locals: the stores below cannot alias them
    const V whi = hi;
    auto& cnt = chunks.cursor[static_cast<std::size_t>(c)];
    cnt.assign(static_cast<std::size_t>(window), 0);
    Weight* slf = nullptr;
    if (fold) {
      chunk_self[static_cast<std::size_t>(c)].assign(self.size(), 0);
      slf = chunk_self[static_cast<std::size_t>(c)].data();
    }
    std::int64_t folded = 0;
    const EdgeId ee = chunks.chunk_begin(c + 1);
    for (EdgeId i = chunks.chunk_begin(c); i < ee; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      const V a = labels[static_cast<std::size_t>(edges.efirst[ii])];
      const V b = labels[static_cast<std::size_t>(edges.esecond[ii])];
      if (a == b) {
        if (slf != nullptr) {
          slf[static_cast<std::size_t>(a)] += edges.eweight[ii];
          ++folded;
        }
        continue;
      }
      const auto [f, s] = hashed_edge_order(a, b);
      if (f >= wlo && f < whi) ++cnt[static_cast<std::size_t>(f - wlo)];
    }
    chunk_folded[static_cast<std::size_t>(c)] = folded;
  }, /*chunk=*/1);
  for (const std::int64_t f : chunk_folded) chunks.folded += f;

  // Per-bucket reduction: chunk cursors from the running cursor, and the
  // folded self weights, in one parallel sweep.
  parallel_for(std::max(window, nself), [&](std::int64_t b) {
    const auto bi = static_cast<std::size_t>(b);
    if (b < window) {
      EdgeId at = running[bi];
      for (auto& cnt : chunks.cursor) at += std::exchange(cnt[bi], at);
      running[bi] = at;
    }
    if (b < nself)
      for (const auto& slf : chunk_self) self[bi] += slf[bi];
  });
  return chunks;
}

/// Pass 2: places each surviving edge (f, s; w) of the window as (s; w)
/// at off[f - lo] - base plus its chunk's next cursor.  `edges` and
/// `labels` are those `chunks` was counted from.
template <EdgeRange E, typename L, VertexId V>
void scatter_label_range(const E& edges, const L& labels, LabelChunks<V>& chunks,
                         std::span<const EdgeId> off, EdgeId base, std::span<V> second,
                         std::span<Weight> weight) {
  parallel_for_dynamic(chunks.nchunks, [&](std::int64_t c) {
    const V lo = chunks.lo;  // locals: the stores below cannot alias them
    const V hi = chunks.hi;
    const EdgeId* at_off = off.data();
    const EdgeId at_base = base;
    auto& cur = chunks.cursor[static_cast<std::size_t>(c)];
    const EdgeId ee = chunks.chunk_begin(c + 1);
    for (EdgeId i = chunks.chunk_begin(c); i < ee; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      const V a = labels[static_cast<std::size_t>(edges.efirst[ii])];
      const V b = labels[static_cast<std::size_t>(edges.esecond[ii])];
      if (a == b) continue;
      const auto [f, s] = hashed_edge_order(a, b);
      if (f < lo || f >= hi) continue;
      const auto fi = static_cast<std::size_t>(f - lo);
      const EdgeId at = at_off[fi] - at_base + cur[fi]++;
      second[static_cast<std::size_t>(at)] = s;
      weight[static_cast<std::size_t>(at)] = edges.eweight[ii];
    }
  }, /*chunk=*/1);
}

/// Pass 4: lays buckets lo, lo + 1, ... out contiguously in `out`'s edge
/// arrays and bucket cursors, filling in the implicit first vertex.
/// Bucket v's len[v] entries start at off[v] - base in `second` /
/// `weight`.  Those are either other arrays, copied from, or `out`'s own
/// esecond and eweight (both, never one of them), which the scatter
/// filled: the buckets then move left in place to [0, sum of len),
/// closing the gaps the accumulation left (and any before bucket lo when
/// off[0] > base), and the two arrays shrink to the edges written but
/// keep their capacity.  `out` is a CommunityGraph or a shard block
/// (cursors indexed by v - lo).  Returns the number of edges written.
///
/// The buckets are cut into runs of about equal work, one per thread.
/// Each thread packs its run's buckets to the front of the run's own
/// span (or, copying, straight to their final place) and writes their
/// first vertices and cursors.  In place, the packed runs then shift
/// left in run order.  A shift by d of n > d entries cannot copy its
/// blocks at once, since each block's first d destinations are the
/// previous block's last d sources: a short shift stages those d
/// entries of every block first, a long one moves in rounds of d
/// entries, so no round overwrites an entry it has yet to read.  Every
/// step is copied in parallel once it is worth a region.
template <typename Out, VertexId V>
EdgeId copy_out_buckets(std::span<const EdgeId> off, EdgeId base, std::span<const EdgeId> len,
                        std::span<const V> second, std::span<const Weight> weight, V lo,
                        Out& out) {
  const auto nb = static_cast<std::int64_t>(len.size());
  std::vector<EdgeId> final_off(len.begin(), len.end());
  final_off.push_back(0);
  const EdgeId final_ne = exclusive_prefix_sum(std::span<EdgeId>(final_off));
  const bool in_place = second.data() == out.esecond.data();
  assert(in_place == (weight.data() == out.eweight.data()) &&
         "copy_out_buckets: second and weight must both be out's arrays, or neither");
  detail::resize_for_overwrite(out.efirst, static_cast<std::size_t>(final_ne));
  if (!in_place) {
    detail::resize_for_overwrite(out.esecond, static_cast<std::size_t>(final_ne));
    detail::resize_for_overwrite(out.eweight, static_cast<std::size_t>(final_ne));
  }
  detail::resize_for_overwrite(out.bucket_begin, static_cast<std::size_t>(nb));
  detail::resize_for_overwrite(out.bucket_end, static_cast<std::size_t>(nb));
  const auto move = [&](EdgeId from, EdgeId to, EdgeId n) {  // to <= from in place
    if (n == 0 || (in_place && from == to)) return;
    const auto f = static_cast<std::size_t>(from);
    const auto t = static_cast<std::size_t>(to);
    const auto k = static_cast<std::size_t>(n);
    std::copy(second.data() + f, second.data() + f + k, out.esecond.data() + t);
    std::copy(weight.data() + f, weight.data() + f + k, out.eweight.data() + t);
  };

  // Runs balanced on entries plus buckets: run r is [run[r], run[r + 1]).
  const std::int64_t work = static_cast<std::int64_t>(final_ne) + nb;
  const std::int64_t runs = std::clamp<std::int64_t>(work >> 14, 1, parallel_threads());
  std::vector<std::int64_t> run(static_cast<std::size_t>(runs) + 1, nb);
  const auto buckets = std::views::iota(std::int64_t{0}, nb);
  for (std::int64_t r = 0; r < runs; ++r)
    run[static_cast<std::size_t>(r)] =
        std::ranges::partition_point(buckets, [&](std::int64_t v) {
          return final_off[static_cast<std::size_t>(v)] + v < work * r / runs;
        }) - buckets.begin();
  const auto src = [&](std::int64_t v) { return off[static_cast<std::size_t>(v)] - base; };

  parallel_for(runs, [&](std::int64_t r) {
    const std::int64_t vb = run[static_cast<std::size_t>(r)];
    const std::int64_t ve = run[static_cast<std::size_t>(r) + 1];
    if (vb == ve) return;
    EdgeId at = in_place ? src(vb) : final_off[static_cast<std::size_t>(vb)];
    for (std::int64_t v = vb; v < ve; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      const EdgeId n = len[vi];
      move(src(v), at, n);
      at += n;
      std::fill_n(out.efirst.begin() + static_cast<std::ptrdiff_t>(final_off[vi]), n,
                  static_cast<V>(lo + static_cast<V>(v)));
      out.bucket_begin[vi] = final_off[vi];
      out.bucket_end[vi] = final_off[vi] + n;
    }
  });

  if (!in_place) return final_ne;
  constexpr EdgeId kParallelCopy = EdgeId{1} << 14;  // entries per thread worth a region
  const auto parallel_move = [&](EdgeId from, EdgeId to, EdgeId n) {  // disjoint ranges
    const std::int64_t blocks =
        std::clamp<std::int64_t>(n / kParallelCopy, 1, parallel_threads());
    parallel_for(blocks, [&](std::int64_t b) {
      const EdgeId lo_k = n * b / blocks;
      move(from + lo_k, to + lo_k, n * (b + 1) / blocks - lo_k);
    });
  };
  // Shifts [from, from + n) left by `by` < n, in blocks of at least
  // kParallelCopy > by entries: every block but the last stages its last
  // `by` entries, then each block copies forward (reading each entry
  // before overwriting it) and writes the staged entries last.
  const auto short_shift = [&](EdgeId from, EdgeId by, EdgeId n) {
    const std::int64_t blocks =
        std::clamp<std::int64_t>(n / kParallelCopy, 1, parallel_threads());
    const auto cut = [&](std::int64_t b) { return from + n * b / blocks; };
    const auto k = static_cast<std::size_t>(by);
    std::vector<V> staged_second(k * static_cast<std::size_t>(blocks - 1));
    std::vector<Weight> staged_weight(staged_second.size());
    V* const es = out.esecond.data();
    Weight* const ew = out.eweight.data();
    parallel_for(blocks - 1, [&](std::int64_t b) {
      const auto at = static_cast<std::size_t>(cut(b + 1) - by);
      const auto stage = k * static_cast<std::size_t>(b);
      std::copy_n(es + at, k, staged_second.data() + stage);
      std::copy_n(ew + at, k, staged_weight.data() + stage);
    });
    parallel_for(blocks, [&](std::int64_t b) {
      const EdgeId staged = b + 1 < blocks ? by : 0;
      move(cut(b), cut(b) - by, cut(b + 1) - cut(b) - staged);
      if (staged == 0) return;
      const auto at = static_cast<std::size_t>(cut(b + 1) - 2 * by);
      const auto stage = k * static_cast<std::size_t>(b);
      std::copy_n(staged_second.data() + stage, k, es + at);
      std::copy_n(staged_weight.data() + stage, k, ew + at);
    });
  };
  for (std::int64_t r = 0; r < runs; ++r) {
    const std::int64_t vb = run[static_cast<std::size_t>(r)];
    const std::int64_t ve = run[static_cast<std::size_t>(r) + 1];
    if (vb == ve) continue;
    const EdgeId to = final_off[static_cast<std::size_t>(vb)];
    const EdgeId n = final_off[static_cast<std::size_t>(ve)] - to;
    const EdgeId by = src(vb) - to;
    if (by == 0 || n == 0) continue;
    if (by < kParallelCopy && by < n) {
      short_shift(src(vb), by, n);
      continue;
    }
    for (EdgeId k = 0; k < n; k += by)
      parallel_move(src(vb) + k, to + k, std::min(by, n - k));
  }
  out.esecond.resize(static_cast<std::size_t>(final_ne));
  out.eweight.resize(static_cast<std::size_t>(final_ne));
  return final_ne;
}

/// Span names of the passes: a contraction traces them as contract.*,
/// building a graph from raw edges as graph.build.*.
struct BucketPassSpans {
  std::string_view count, scatter, sort, copy;
};
inline constexpr BucketPassSpans kContractSpans{"contract.count", "contract.scatter",
                                                "contract.sort", "contract.copy"};

namespace detail {

/// The four passes over one edge range: relabel by `labels`, fold
/// intra-label edges into `self` (empty: no fold), and lay the surviving
/// edges whose hashed-first vertex lies in [lo, hi) out as `out`'s
/// sorted, accumulated buckets (a CommunityGraph, or a shard block).
/// The scatter writes into `out`'s esecond / eweight, sized to the
/// surviving edges (within their capacity, when `out` recycles a graph),
/// and the sort and the compaction run on them in place.  `out` must not
/// hold `edges`.  Returns the edges folded.
template <EdgeRange E, typename L, VertexId V, typename Out>
std::int64_t bucket_sort_range(const E& edges, const L& labels, V lo, V hi,
                               std::span<Weight> self, Out& out, const BucketPassSpans& spans) {
  const auto n = static_cast<std::size_t>(hi - lo);
  obs::ScopedSpan count_span(spans.count);
  count_span.attr("edges", static_cast<std::int64_t>(edges.num_edges()));
  std::vector<EdgeId> counts(n + 1, 0);
  auto chunks = count_label_range(edges, labels, lo, hi, std::span<EdgeId>(counts).first(n),
                                  self);
  const EdgeId live = exclusive_prefix_sum(std::span<EdgeId>(counts));
  const std::int64_t folded = chunks.folded;
  count_span.close();

  obs::ScopedSpan scatter_span(spans.scatter);
  scatter_span.attr("edges", static_cast<std::int64_t>(live));
  resize_for_overwrite(out.esecond, static_cast<std::size_t>(live));
  resize_for_overwrite(out.eweight, static_cast<std::size_t>(live));
  scatter_label_range(edges, labels, chunks, std::span<const EdgeId>(counts), 0,
                      std::span<V>(out.esecond), std::span<Weight>(out.eweight));
  chunks = {};
  scatter_span.close();

  // Pass 3: order each bucket by second vertex, accumulating duplicates
  // (sorted, or accumulated by key when the bucket's keys are packed).
  obs::ScopedSpan sort_span(spans.sort);
  sort_span.attr("edges", static_cast<std::int64_t>(live));
  const auto accumulated = sort_and_accumulate_buckets<V>(
      std::span<const EdgeId>(counts), 0, std::span<V>(out.esecond),
      std::span<Weight>(out.eweight));
  sort_span.attr("dense_buckets", accumulated.dense_buckets);
  sort_span.close();

  obs::ScopedSpan copy_span(spans.copy);
  const EdgeId final_ne = copy_out_buckets(
      std::span<const EdgeId>(counts), 0, std::span<const EdgeId>(accumulated.new_len),
      std::span<const V>(out.esecond), std::span<const Weight>(out.eweight), lo, out);
  copy_span.attr("edges", static_cast<std::int64_t>(final_ne));
  return folded;
}

}  // namespace detail

/// Contracts `base` by the dense labeling `labels` (values in
/// [0, num_labels)): every label class becomes one vertex carrying its
/// members' collapsed internal weight as a self-loop; volumes and total
/// weight are preserved exactly (both are additive under contraction).
/// Weights are integers, so the output is bit-identical at any thread
/// count, and it does not depend on what `buffers` held.  The output
/// takes over `buffers.spare`'s arrays (which must not be `base`'s).
template <VertexId V>
[[nodiscard]] CommunityGraph<V> contract_by_labels(const CommunityGraph<V>& base,
                                                   std::span<const V> labels,
                                                   std::int64_t num_labels,
                                                   ContractionBuffers<V>& buffers) {
  const auto n = static_cast<std::size_t>(num_labels);
  CommunityGraph<V> out = std::exchange(buffers.spare, CommunityGraph<V>{});
  out.nv = static_cast<V>(num_labels);
  out.total_weight = base.total_weight;
  out.volume.assign(n, 0);
  out.self_weight.assign(n, 0);
  fold_vertex_state(base, labels, std::span<Weight>(out.self_weight),
                    std::span<Weight>(out.volume));
  const std::int64_t folded =
      detail::bucket_sort_range(base, labels, V{0}, out.nv, std::span<Weight>(out.self_weight),
                                out, kContractSpans);
  if (obs::Counter* c = obs::counter("contract.self_edges_folded")) c->add(folded);
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
