// Partitioned community graph: the single-process skeleton of the
// multi-node designs in Lu–Halappanavar and the Arachne paper.
//
// A ShardedGraph splits the vertex range [0, nv) into K contiguous
// ownership ranges, cut so every shard holds roughly the same number of
// edges.  Shard s stores the edge buckets of its owned vertices in a
// ShardBlock — the same hashed-first canonical layout the builder
// produces (buckets contiguous in vertex order, each sorted by second
// endpoint), restricted to [lo, hi).  An edge whose second endpoint is
// owned elsewhere is a *cut edge*: it is stored exactly once, in its
// hashed-first owner's block.  Concatenating the blocks in shard order
// therefore reproduces the unsharded canonical graph bit for bit
// (assemble()), and every cut edge's weight is counted exactly once
// across shards.
//
// Ownership of *per-vertex* state (self weights, volumes) stays in two
// nv-long arrays indexed globally.  In this single-process skeleton they
// are shared memory; in a multi-node port each shard would own its
// slice, and the remote entries a block reads — the ghosts it must
// fetch before scoring (exchange point 1 of the protocol described in
// DESIGN.md) — are the remote ids in its esecond, derived when needed
// and not stored.
//
// Out-of-core mode: with ShardSpill enabled, a block's arrays live in a
// crash-atomic io/snapshot.hpp container on disk while inactive.  A
// BlockLease makes a shard resident for the duration of a pass and
// spills it back on release, so the peak footprint of a sweep is the
// per-vertex arrays plus ONE resident block.  Blocks are immutable
// during detection, so a clean release is a pure memory free (the disk
// copy stays valid); only delta application rewrites the spill file.
//
// What this file adds to the unsharded graph code is block leasing,
// routing (ownership cuts, the builder's per-shard staging, the
// per-block delta slices) and the in-place delta application that
// out-of-core storage needs; the build, partition and delta passes
// themselves are graph/builder.hpp's and contract/label_contractor.hpp's
// range kernels.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "commdet/contract/label_contractor.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/graph/community_graph.hpp"
#include "commdet/graph/delta.hpp"
#include "commdet/graph/edge_list.hpp"
#include "commdet/io/snapshot.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/util/big_array.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/prefix_sum.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

/// Out-of-core configuration: when enabled, inactive shard blocks live
/// in snapshot containers under `directory` instead of memory.
struct ShardSpill {
  bool enabled = false;
  std::string directory;
};

inline constexpr std::uint32_t kShardBlockSnapshotVersion = 43;
inline constexpr std::uint32_t kShardStageSnapshotVersion = 42;

namespace detail {

[[nodiscard]] inline std::uint64_t next_shard_file_id() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Creates the spill directory on first use (idempotent; races between
/// shards are fine — create_directories succeeds if it already exists).
inline void ensure_spill_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec)
    throw std::runtime_error("cannot create spill directory: " + dir + " (" +
                             ec.message() + ")");
}

/// Cuts [0, nv) into k contiguous ranges balanced by the edge-count
/// prefix `cum` (size nv + 1).  Falls back to vertex-balanced cuts on an
/// edgeless graph.  Deterministic: the same prefix always produces the
/// same cuts, which is what keeps re-sharded contractions reproducible.
template <VertexId V>
[[nodiscard]] std::vector<V> balanced_shard_cuts(std::span<const EdgeId> cum, int k) {
  const auto nv = static_cast<std::int64_t>(cum.size()) - 1;
  const EdgeId total = cum[static_cast<std::size_t>(nv)];
  std::vector<V> cuts(static_cast<std::size_t>(k) + 1, 0);
  cuts[static_cast<std::size_t>(k)] = static_cast<V>(nv);
  for (int s = 1; s < k; ++s) {
    std::int64_t at;
    if (total == 0) {
      at = nv * s / k;
    } else {
      const EdgeId target = total * s / k;
      at = std::lower_bound(cum.begin(), cum.end(), target) - cum.begin();
    }
    at = std::clamp<std::int64_t>(at, static_cast<std::int64_t>(cuts[static_cast<std::size_t>(s) - 1]), nv);
    cuts[static_cast<std::size_t>(s)] = static_cast<V>(at);
  }
  return cuts;
}

}  // namespace detail

/// One shard's edge storage: the canonical bucketed layout restricted to
/// the owned vertex range [lo, hi).  Bucket cursors are local (indexed
/// by v - lo); endpoint ids stay global.  `ne` and the range survive a
/// spill — only the arrays leave memory.
template <VertexId V>
struct ShardBlock {
  V lo = 0;
  V hi = 0;

  std::vector<EdgeId> bucket_begin;  // local index (v - lo)
  std::vector<EdgeId> bucket_end;
  BigVector<V> efirst;   // global ids; efirst[e] in [lo, hi)
  BigVector<V> esecond;  // global ids, may be remote
  BigVector<Weight> eweight;

  EdgeId ne = 0;  // edge count; valid while spilled
  bool resident = true;
  bool spilled_valid = false;  // the on-disk copy matches the arrays
  std::string spill_path;

  [[nodiscard]] V num_owned() const noexcept { return hi - lo; }
  [[nodiscard]] EdgeId num_edges() const noexcept { return ne; }

  /// Bucket of an *owned* global vertex v.
  [[nodiscard]] std::pair<EdgeId, EdgeId> bucket(V v) const noexcept {
    const auto i = static_cast<std::size_t>(v - lo);
    return {bucket_begin[i], bucket_end[i]};
  }

  [[nodiscard]] std::size_t array_bytes() const noexcept {
    return bucket_begin.size() * sizeof(EdgeId) + bucket_end.size() * sizeof(EdgeId) +
           (efirst.size() + esecond.size()) * sizeof(V) +
           eweight.size() * sizeof(Weight);
  }

  void drop_arrays() noexcept {
    std::vector<EdgeId>().swap(bucket_begin);
    std::vector<EdgeId>().swap(bucket_end);
    BigVector<V>().swap(efirst);
    BigVector<V>().swap(esecond);
    BigVector<Weight>().swap(eweight);
  }
};

/// The partitioned graph.  Move-only: the instance owns its spill files
/// and removes them on destruction.
template <VertexId V>
struct ShardedGraph {
  V nv = 0;
  Weight total_weight = 0;
  ShardSpill spill;
  std::vector<ShardBlock<V>> shards;

  /// Per-vertex state, globally indexed.  Writers are always the owning
  /// shard or a reconciled cross-shard reduction (see DESIGN.md).
  std::vector<Weight> self_weight;
  std::vector<Weight> volume;

  ShardedGraph() = default;
  ShardedGraph(const ShardedGraph&) = delete;
  ShardedGraph& operator=(const ShardedGraph&) = delete;
  ShardedGraph(ShardedGraph&&) noexcept = default;
  ShardedGraph& operator=(ShardedGraph&& other) noexcept {
    if (this != &other) {
      remove_spill_files();
      nv = other.nv;
      total_weight = other.total_weight;
      spill = std::move(other.spill);
      shards = std::move(other.shards);
      self_weight = std::move(other.self_weight);
      volume = std::move(other.volume);
    }
    return *this;
  }
  ~ShardedGraph() { remove_spill_files(); }

  [[nodiscard]] int num_shards() const noexcept { return static_cast<int>(shards.size()); }
  [[nodiscard]] V num_vertices() const noexcept { return nv; }

  [[nodiscard]] EdgeId num_edges() const noexcept {
    EdgeId total = 0;
    for (const auto& b : shards) total += b.ne;
    return total;
  }

  /// Shard owning global vertex v (ranges are contiguous and sorted).
  [[nodiscard]] int owner_of(V v) const noexcept {
    int lo = 0;
    int hi = num_shards() - 1;
    while (lo < hi) {
      const int mid = (lo + hi + 1) / 2;
      if (shards[static_cast<std::size_t>(mid)].lo <= v) lo = mid;
      else hi = mid - 1;
    }
    return lo;
  }

  /// Bytes currently held in memory (blocks + per-vertex arrays).
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    std::size_t total = (self_weight.size() + volume.size()) * sizeof(Weight);
    for (const auto& b : shards)
      if (b.resident) total += b.array_bytes();
    return total;
  }

  /// Loads a spilled block back into memory.  Throws CommdetError on a
  /// failed or corrupt read (fault site io.snapshot.read).
  void ensure_resident(int s) {
    auto& b = shards[static_cast<std::size_t>(s)];
    if (b.resident) return;
    SnapshotReader r(b.spill_path, kShardBlockSnapshotVersion);
    const auto lo = static_cast<V>(r.read_i64());
    const auto hi = static_cast<V>(r.read_i64());
    if (lo != b.lo || hi != b.hi)
      throw_error(ErrorCode::kIoFormat, Phase::kDriver,
                  "shard block range mismatch in " + b.spill_path);
    b.bucket_begin = r.read_i64_array<EdgeId>();
    b.bucket_end = r.read_i64_array<EdgeId>();
    b.efirst = r.read_i64_array<V, BigVector<V>>();
    b.esecond = r.read_i64_array<V, BigVector<V>>();
    b.eweight = r.read_i64_array<Weight, BigVector<Weight>>();
    r.finish();
    b.ne = static_cast<EdgeId>(b.efirst.size());
    b.resident = true;
    if (obs::Counter* c = obs::counter("shard.spill.reads")) c->add(1);
    if (obs::Counter* c = obs::counter("shard.spill.read_bytes"))
      c->add(static_cast<std::int64_t>(b.array_bytes()));
  }

  /// Releases a block after a pass.  No-op without spill; otherwise the
  /// arrays are freed, writing the snapshot first when the block is
  /// dirty (or was never stored).
  void release(int s) {
    if (!spill.enabled) return;
    auto& b = shards[static_cast<std::size_t>(s)];
    if (!b.resident) return;
    if (!b.spilled_valid) store_block(s);
    b.drop_arrays();
    b.resident = false;
  }

  /// Reconstructs the unsharded canonical CommunityGraph (tests, the
  /// oracle comparisons, and small-graph interop).  Blocks are leased
  /// one at a time, so this works in spill mode too.
  [[nodiscard]] CommunityGraph<V> assemble() {
    CommunityGraph<V> g;
    g.nv = nv;
    g.total_weight = total_weight;
    g.self_weight = self_weight;
    g.volume = volume;
    const EdgeId total = num_edges();
    g.efirst.reserve(static_cast<std::size_t>(total));
    g.esecond.reserve(static_cast<std::size_t>(total));
    g.eweight.reserve(static_cast<std::size_t>(total));
    g.bucket_begin.assign(static_cast<std::size_t>(nv), 0);
    g.bucket_end.assign(static_cast<std::size_t>(nv), 0);
    for_each_edge_range(*this, [&](const ShardBlock<V>& b) {
      const auto base = static_cast<EdgeId>(g.efirst.size());
      for (V v = b.lo; v < b.hi; ++v) {
        const auto [bb, be] = b.bucket(v);
        g.bucket_begin[static_cast<std::size_t>(v)] = base + bb;
        g.bucket_end[static_cast<std::size_t>(v)] = base + be;
      }
      g.efirst.insert(g.efirst.end(), b.efirst.begin(), b.efirst.end());
      g.esecond.insert(g.esecond.end(), b.esecond.begin(), b.esecond.end());
      g.eweight.insert(g.eweight.end(), b.eweight.begin(), b.eweight.end());
    });
    return g;
  }

  void remove_spill_files() noexcept {
    for (auto& b : shards) {
      if (!b.spill_path.empty()) (void)std::remove(b.spill_path.c_str());
      b.spill_path.clear();
      b.spilled_valid = false;
    }
  }

 private:
  void store_block(int s) {
    auto& b = shards[static_cast<std::size_t>(s)];
    if (b.spill_path.empty()) {
      detail::ensure_spill_dir(spill.directory);
      b.spill_path = spill.directory + "/blk-" +
                     std::to_string(detail::next_shard_file_id()) + ".shard";
    }
    SnapshotWriter w(b.spill_path, kShardBlockSnapshotVersion);
    w.write_i64(static_cast<std::int64_t>(b.lo));
    w.write_i64(static_cast<std::int64_t>(b.hi));
    w.write_i64_array(b.bucket_begin);
    w.write_i64_array(b.bucket_end);
    w.write_i64_array(b.efirst);
    w.write_i64_array(b.esecond);
    w.write_i64_array(b.eweight);
    w.commit();
    b.spilled_valid = true;
    if (obs::Counter* c = obs::counter("shard.spill.writes")) c->add(1);
    if (obs::Counter* c = obs::counter("shard.spill.write_bytes"))
      c->add(static_cast<std::int64_t>(w.payload_size()));
  }
};

/// RAII residency for one shard during a pass: loads on construction,
/// releases (spilling if dirty) on destruction.  A release failure in
/// the destructor is contained — the block simply stays resident; call
/// close() to release with error propagation.
template <VertexId V>
class BlockLease {
 public:
  BlockLease(ShardedGraph<V>& g, int s) : g_(&g), s_(s) { g.ensure_resident(s); }
  BlockLease(const BlockLease&) = delete;
  BlockLease& operator=(const BlockLease&) = delete;
  ~BlockLease() {
    try {
      g_->release(s_);
    } catch (...) {
      if (obs::Counter* c = obs::counter("shard.spill.release_failures")) c->add(1);
    }
  }

  void close() { g_->release(s_); }

  [[nodiscard]] ShardBlock<V>& block() noexcept {
    return g_->shards[static_cast<std::size_t>(s_)];
  }

 private:
  ShardedGraph<V>* g_;
  int s_;
};

/// Runs `fn(block)` on every shard block in shard order, each leased for
/// the call only, so a spilled graph holds one block in memory at a time.
template <VertexId V, typename Fn>
void for_each_edge_range(ShardedGraph<V>& sg, Fn&& fn) {
  for (int s = 0; s < sg.num_shards(); ++s) {
    BlockLease<V> lease(sg, s);
    fn(std::as_const(lease.block()));
    lease.close();
  }
}

/// Partitions an in-memory canonical CommunityGraph (builder layout:
/// contiguous buckets in vertex order, each sorted by second endpoint)
/// into K edge-balanced shards.  With spill enabled, each block is
/// written out as soon as it is cut, so the peak overhead beyond the
/// input graph is one block.
template <VertexId V>
[[nodiscard]] ShardedGraph<V> partition_graph(const CommunityGraph<V>& g, int num_shards,
                                              ShardSpill spill = {}) {
  if (num_shards < 1) throw std::invalid_argument("shard count must be >= 1");
  if (spill.enabled && spill.directory.empty())
    throw std::invalid_argument("shard spill requires a directory");
  const auto nv = static_cast<std::int64_t>(g.nv);
  const int k = static_cast<int>(
      std::min<std::int64_t>(num_shards, std::max<std::int64_t>(nv, 1)));

  ShardedGraph<V> out;
  out.nv = g.nv;
  out.total_weight = g.total_weight;
  out.spill = std::move(spill);
  out.self_weight = g.self_weight;
  out.volume = g.volume;

  std::vector<EdgeId> cum(static_cast<std::size_t>(nv) + 1, 0);
  parallel_for(nv, [&](std::int64_t v) {
    const auto i = static_cast<std::size_t>(v);
    cum[i] = g.bucket_end[i] - g.bucket_begin[i];
  });
  (void)exclusive_prefix_sum(std::span<EdgeId>(cum));
  const auto cuts = detail::balanced_shard_cuts<V>(std::span<const EdgeId>(cum), k);

  out.shards.resize(static_cast<std::size_t>(k));
  for (int s = 0; s < k; ++s) {
    auto& b = out.shards[static_cast<std::size_t>(s)];
    b.lo = cuts[static_cast<std::size_t>(s)];
    b.hi = cuts[static_cast<std::size_t>(s) + 1];
    const auto owned = static_cast<std::size_t>(b.hi - b.lo);
    std::vector<EdgeId> len(owned);
    parallel_for(static_cast<std::int64_t>(owned), [&](std::int64_t i) {
      const auto v = static_cast<std::size_t>(b.lo) + static_cast<std::size_t>(i);
      len[static_cast<std::size_t>(i)] = g.bucket_end[v] - g.bucket_begin[v];
    });
    const auto begin = std::span<const EdgeId>(g.bucket_begin);
    b.ne = copy_out_buckets(begin.subspan(static_cast<std::size_t>(b.lo), owned), 0,
                            std::span<const EdgeId>(len), std::span<const V>(g.esecond),
                            std::span<const Weight>(g.eweight), b.lo, b);
    out.release(s);
  }
  return out;
}

/// Builds a ShardedGraph from raw edges WITHOUT ever materializing the
/// full edge list or the unsharded graph — the out-of-core entry point.
/// Two passes over the input (any chunking, any order):
///
///   1. count_edges() on every chunk, then finalize_ranges(): a
///      per-vertex histogram of hashed-first placements fixes the
///      edge-balanced ownership cuts.
///   2. add_edges() on every chunk routes each edge to its owner's
///      staging buffer (spilled to stage part files beyond a budget),
///      then finalize() lays each shard out independently with the
///      graph builder's passes over the shard's bucket window — identical
///      to partitioning the output of build_community_graph on the same
///      input.
template <VertexId V>
class ShardedGraphBuilder {
 public:
  ShardedGraphBuilder(V nv, int num_shards, ShardSpill spill = {},
                      std::int64_t stage_budget_edges = std::int64_t{1} << 20)
      : nv_(nv), stage_budget_(stage_budget_edges) {
    if (num_shards < 1) throw std::invalid_argument("shard count must be >= 1");
    if (spill.enabled && spill.directory.empty())
      throw std::invalid_argument("shard spill requires a directory");
    k_ = static_cast<int>(std::min<std::int64_t>(
        num_shards, std::max<std::int64_t>(static_cast<std::int64_t>(nv), 1)));
    graph_.nv = nv;
    graph_.spill = std::move(spill);
    counts_.assign(static_cast<std::size_t>(nv) + 1, 0);
  }

  /// Phase 1: validates one chunk, then histograms it in chunk-private
  /// arrays holding at most one slot per edge.
  void count_edges(std::span<const RawEdge<V>> chunk) {
    if (ranged_) throw std::logic_error("count_edges after finalize_ranges");
    const auto n = static_cast<std::int64_t>(chunk.size());
    // A bad endpoint (2) outranks a bad weight (1) wherever each lies.
    const int bad = parallel_max(n, 0, [&](std::int64_t i) {
      const auto& e = chunk[static_cast<std::size_t>(i)];
      if (e.u < 0 || e.u >= nv_ || e.v < 0 || e.v >= nv_) return 2;
      return e.w <= 0 ? 1 : 0;
    });
    if (bad == 2) throw std::invalid_argument("edge endpoint out of range");
    if (bad == 1) throw std::invalid_argument("edge weight must be positive");
    const auto count = [&](std::int64_t begin, std::int64_t end, const auto& acc) {
      for (const auto& e : chunk.subspan(static_cast<std::size_t>(begin),
                                         static_cast<std::size_t>(end - begin)))
        if (e.u != e.v) ++acc[0][static_cast<std::size_t>(hashed_edge_order(e.u, e.v).first)];
    };
    parallel_chunk_add(n, std::clamp<std::int64_t>(n / (static_cast<std::int64_t>(nv_) + 1), 1,
                                                   parallel_threads()),
                       std::array{std::span<EdgeId>(counts_)}, count);
  }

  void finalize_ranges() {
    if (ranged_) return;
    cum_ = counts_;
    (void)exclusive_prefix_sum(std::span<EdgeId>(cum_));
    const auto cuts = detail::balanced_shard_cuts<V>(std::span<const EdgeId>(cum_), k_);
    graph_.shards.resize(static_cast<std::size_t>(k_));
    for (int s = 0; s < k_; ++s) {
      graph_.shards[static_cast<std::size_t>(s)].lo = cuts[static_cast<std::size_t>(s)];
      graph_.shards[static_cast<std::size_t>(s)].hi = cuts[static_cast<std::size_t>(s) + 1];
    }
    graph_.self_weight.assign(static_cast<std::size_t>(nv_), 0);
    graph_.volume.assign(static_cast<std::size_t>(nv_), 0);
    stage_.assign(static_cast<std::size_t>(k_), Stage{});
    parts_.assign(static_cast<std::size_t>(k_), {});
    ranged_ = true;
  }

  /// Phase 2: route one chunk to the owning shards' staging buffers.
  void add_edges(std::span<const RawEdge<V>> chunk) {
    if (!ranged_) throw std::logic_error("add_edges before finalize_ranges");
    for (const auto& e : chunk) {
      graph_.total_weight += e.w;
      if (e.u == e.v) {
        graph_.self_weight[static_cast<std::size_t>(e.u)] += e.w;
        continue;
      }
      const auto [f, s] = hashed_edge_order(e.u, e.v);
      const int owner = graph_.owner_of(f);
      auto& st = stage_[static_cast<std::size_t>(owner)];
      st.efirst.push_back(f);
      st.esecond.push_back(s);
      st.eweight.push_back(e.w);
      if (graph_.spill.enabled && st.num_edges() >= stage_budget_)
        flush_stage(owner);
    }
  }

  /// Accumulates and lays out every shard; returns the finished
  /// graph (blocks spilled as they complete when spill is on).
  [[nodiscard]] ShardedGraph<V> finalize() {
    if (!ranged_) finalize_ranges();
    for (int s = 0; s < k_; ++s) finalize_shard(s);
    // Volume = 2*self + incident cut weight; the edge contributions were
    // accumulated per shard, the self term lands here.
    parallel_for(static_cast<std::int64_t>(nv_), [&](std::int64_t v) {
      const auto i = static_cast<std::size_t>(v);
      graph_.volume[i] += 2 * graph_.self_weight[i];
    });
    ranged_ = false;
    return std::move(graph_);
  }

 private:
  /// One shard's routed edges, in hashed order (an EdgeRange).
  struct Stage {
    std::vector<V> efirst;
    std::vector<V> esecond;
    std::vector<Weight> eweight;
    [[nodiscard]] EdgeId num_edges() const noexcept {
      return static_cast<EdgeId>(efirst.size());
    }
  };

  void flush_stage(int s) {
    auto& st = stage_[static_cast<std::size_t>(s)];
    if (st.efirst.empty()) return;
    detail::ensure_spill_dir(graph_.spill.directory);
    const std::string path = graph_.spill.directory + "/stage-" +
                             std::to_string(detail::next_shard_file_id()) + ".part";
    SnapshotWriter w(path, kShardStageSnapshotVersion);
    w.write_i64_array(st.efirst);
    w.write_i64_array(st.esecond);
    w.write_i64_array(st.eweight);
    w.commit();
    parts_[static_cast<std::size_t>(s)].push_back(path);
    st = Stage{};
  }

  /// Gathers shard s's spilled and staged edges and lays them out with
  /// the graph builder's passes over the window [lo, hi).
  void finalize_shard(int s) {
    auto& b = graph_.shards[static_cast<std::size_t>(s)];
    const EdgeId expect = cum_[static_cast<std::size_t>(b.hi)] -
                          cum_[static_cast<std::size_t>(b.lo)];
    Stage st = std::exchange(stage_[static_cast<std::size_t>(s)], Stage{});
    for (const auto& path : parts_[static_cast<std::size_t>(s)]) {
      SnapshotReader r(path, kShardStageSnapshotVersion);
      const auto first = r.read_i64_array<V>();
      const auto second = r.read_i64_array<V>();
      const auto weight = r.read_i64_array<Weight>();
      r.finish();
      st.efirst.insert(st.efirst.end(), first.begin(), first.end());
      st.esecond.insert(st.esecond.end(), second.begin(), second.end());
      st.eweight.insert(st.eweight.end(), weight.begin(), weight.end());
      (void)std::remove(path.c_str());
    }
    parts_[static_cast<std::size_t>(s)].clear();
    if (st.num_edges() != expect)
      throw std::logic_error("shard staging does not match the counting pass");

    (void)detail::bucket_sort_range(st, IdentityLabels<V>{}, b.lo, b.hi, std::span<Weight>{},
                                    b, kBuildSpans);
    st = Stage{};
    const auto ne = static_cast<std::int64_t>(b.efirst.size());

    // Edge contributions to both endpoints' volumes (remote endpoints
    // land in the shared array — exchange point 1 in a multi-node port).
    parallel_for(ne, [&](std::int64_t e) {
      const auto i = static_cast<std::size_t>(e);
      std::atomic_ref<Weight>(graph_.volume[static_cast<std::size_t>(b.efirst[i])])
          .fetch_add(b.eweight[i], std::memory_order_relaxed);
      std::atomic_ref<Weight>(graph_.volume[static_cast<std::size_t>(b.esecond[i])])
          .fetch_add(b.eweight[i], std::memory_order_relaxed);
    });

    b.ne = static_cast<EdgeId>(ne);
    graph_.release(s);
  }

  V nv_ = 0;
  int k_ = 1;
  std::int64_t stage_budget_ = 0;
  bool ranged_ = false;
  ShardedGraph<V> graph_;
  std::vector<EdgeId> counts_;
  std::vector<EdgeId> cum_;
  std::vector<Stage> stage_;
  std::vector<std::vector<std::string>> parts_;
};

/// Category counts and touched set of a sharded apply_delta; both equal
/// the unsharded apply_delta's on the same batch.
template <VertexId V>
struct ShardedDeltaApplied {
  DeltaApplyReport report;
  std::vector<V> touched;
};

/// Sharded apply_delta: the unsharded kernel's validation, self-loop
/// and merge passes, with the merge run once per block over that
/// block's slice of the normalized span.  Normalization sorts by the
/// hashed-first endpoint, which names the owning shard, so each slice is
/// contiguous — the routing a multi-node port would ship.  Mutates the
/// graph IN PLACE (an out-of-core graph has no room for a second copy):
/// each block with deltas is leased, its merged arrays swapped in, and
/// marked dirty so the next release rewrites its spill file.
template <VertexId V>
[[nodiscard]] ShardedDeltaApplied<V> apply_delta(ShardedGraph<V>& sg,
                                                 std::span<const EdgeDelta<V>> deltas) {
  detail::validate_deltas(deltas, sg.nv);
  ShardedDeltaApplied<V> out;
  std::vector<std::uint8_t> touched(static_cast<std::size_t>(sg.nv), 0);
  const auto edge_deltas =
      detail::apply_self_loop_deltas(sg, deltas, std::span<std::uint8_t>(touched), out.report);
  const auto cmp_first = [](const EdgeDelta<V>& d, V f) { return d.u < f; };
  for (int s = 0; s < sg.num_shards(); ++s) {
    const auto& range = sg.shards[static_cast<std::size_t>(s)];
    const auto* begin =
        std::lower_bound(edge_deltas.data(), edge_deltas.data() + edge_deltas.size(), range.lo,
                         cmp_first);
    const auto* end = std::lower_bound(begin, edge_deltas.data() + edge_deltas.size(),
                                       range.hi, cmp_first);
    if (begin == end) continue;

    BlockLease<V> lease(sg, s);
    auto& b = lease.block();
    ShardBlock<V> merged;
    b.ne = detail::merge_delta_range(b, b.lo, b.hi, std::span<const EdgeDelta<V>>(begin, end),
                                     merged, sg, std::span<std::uint8_t>(touched), out.report);
    b.bucket_begin.swap(merged.bucket_begin);
    b.bucket_end.swap(merged.bucket_end);
    b.efirst.swap(merged.efirst);
    b.esecond.swap(merged.esecond);
    b.eweight.swap(merged.eweight);
    b.spilled_valid = false;
    lease.close();
  }
  out.touched = detail::touched_vertices<V>(touched);
  return out;
}

/// Convenience overload for a raw (un-normalized) batch.
template <VertexId V>
[[nodiscard]] ShardedDeltaApplied<V> apply_delta(ShardedGraph<V>& sg,
                                                 const DeltaBatch<V>& batch) {
  const auto normalized = normalize_deltas(batch);
  return apply_delta(sg, std::span<const EdgeDelta<V>>(normalized));
}

}  // namespace commdet
