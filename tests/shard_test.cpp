// Tests for the sharded graph subsystem (src/commdet/shard/): partition
// invariants, boundary-edge accounting, bit-parity of the sharded
// kernels with the unsharded oracles (several scorers, two levels, every
// layout), spill round-trips, fault
// containment, dynamic routing, and plan/facade wiring.
//
// Compiled with COMMDET_FAULT_INJECTION=1 so the spill-read fault site
// (io.snapshot.read) is live for the containment tests.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "commdet/contract/label_contractor.hpp"
#include "commdet/core/detect.hpp"
#include "commdet/core/metrics.hpp"
#include "commdet/dyn/dynamic_communities.hpp"
#include "commdet/gen/planted_partition.hpp"
#include "commdet/gen/rmat.hpp"
#include "commdet/gen/simple_graphs.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/robust/fault_injection.hpp"
#include "commdet/score/scorers.hpp"
#include "commdet/shard/shard_contract.hpp"
#include "commdet/shard/shard_dyn.hpp"
#include "commdet/shard/shard_match.hpp"
#include "commdet/shard/shard_score.hpp"
#include "commdet/shard/sharded_graph.hpp"

namespace commdet {
namespace {

using V32 = std::int32_t;

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

CommunityGraph<V32> rmat_graph(int scale, int ef = 8, std::uint64_t seed = 7) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = ef;
  p.seed = seed;
  return build_community_graph(generate_rmat<V32>(p));
}

CommunityGraph<V32> sbm_graph() {
  PlantedPartitionParams p;
  p.num_vertices = 1 << 15;
  p.num_blocks = 64;
  p.internal_degree = 12.0;
  p.external_degree = 3.0;
  p.seed = 11;
  return build_community_graph(generate_planted_partition<V32>(p));
}

void expect_same_graph(const CommunityGraph<V32>& a, const CommunityGraph<V32>& b) {
  ASSERT_EQ(a.nv, b.nv);
  EXPECT_EQ(a.total_weight, b.total_weight);
  EXPECT_EQ(a.bucket_begin, b.bucket_begin);
  EXPECT_EQ(a.bucket_end, b.bucket_end);
  EXPECT_EQ(a.efirst, b.efirst);
  EXPECT_EQ(a.esecond, b.esecond);
  EXPECT_EQ(a.eweight, b.eweight);
  EXPECT_EQ(a.self_weight, b.self_weight);
  EXPECT_EQ(a.volume, b.volume);
}

// ---------------------------------------------------------------------------
// Partition invariants and boundary-edge accounting

TEST(ShardPartition, Invariants) {
  const auto g = rmat_graph(10);
  for (int k : {1, 3, 8}) {
    auto sg = partition_graph(g, k);
    ASSERT_EQ(sg.num_shards(), std::min<std::int64_t>(k, g.nv));
    EXPECT_EQ(sg.nv, g.nv);
    EXPECT_EQ(sg.total_weight, g.total_weight);
    EXPECT_EQ(sg.num_edges(), g.num_edges());

    // Contiguous, non-overlapping, covering ownership.
    V32 expect_lo = 0;
    for (int s = 0; s < sg.num_shards(); ++s) {
      const auto& b = sg.shards[static_cast<std::size_t>(s)];
      EXPECT_EQ(b.lo, expect_lo);
      EXPECT_GE(b.hi, b.lo);
      expect_lo = b.hi;
      // Every edge's first endpoint is owned.
      for (EdgeId e = 0; e < b.num_edges(); ++e) {
        const auto i = static_cast<std::size_t>(e);
        EXPECT_GE(b.efirst[i], b.lo);
        EXPECT_LT(b.efirst[i], b.hi);
        EXPECT_EQ(sg.owner_of(b.efirst[i]), s);
      }
    }
    EXPECT_EQ(expect_lo, static_cast<V32>(g.nv));
  }
}

TEST(ShardPartition, AssembleRoundTrip) {
  const auto g = rmat_graph(10);
  for (int k : {1, 3, 8}) {
    auto sg = partition_graph(g, k);
    expect_same_graph(sg.assemble(), g);
  }
}

// Property: every cut edge's weight is counted exactly once across
// shards — block weights plus self-loops reconstruct the total, and
// per-vertex volumes derived from the blocks match the oracle.
TEST(ShardPartition, CutEdgeWeightCountedOnce) {
  const auto g = rmat_graph(10);
  for (int k : {2, 5, 8}) {
    auto sg = partition_graph(g, k);
    Weight edge_weight = 0;
    std::vector<Weight> vol(static_cast<std::size_t>(g.nv), 0);
    for (int s = 0; s < sg.num_shards(); ++s) {
      BlockLease<V32> lease(sg, s);
      const auto& b = lease.block();
      for (EdgeId e = 0; e < b.num_edges(); ++e) {
        const auto i = static_cast<std::size_t>(e);
        edge_weight += b.eweight[i];
        vol[static_cast<std::size_t>(b.efirst[i])] += b.eweight[i];
        vol[static_cast<std::size_t>(b.esecond[i])] += b.eweight[i];
      }
      lease.close();
    }
    Weight self = 0;
    for (std::int64_t v = 0; v < g.nv; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      self += g.self_weight[vi];
      vol[vi] += 2 * g.self_weight[vi];
    }
    EXPECT_EQ(edge_weight + self, g.total_weight);
    EXPECT_EQ(vol, g.volume);

    // Modularity over the sharded arrays equals the unsharded value
    // bit for bit (same expression over the same doubles), for
    // singletons and for a few large classes (the chunk-private fold).
    std::vector<V32> singletons(static_cast<std::size_t>(g.nv));
    std::iota(singletons.begin(), singletons.end(), 0);
    std::vector<V32> classes(static_cast<std::size_t>(g.nv));
    for (std::size_t v = 0; v < classes.size(); ++v) classes[v] = static_cast<V32>(v % 7);
    for (const auto& [labels, num_labels] : {std::pair{singletons, std::int64_t{g.nv}},
                                             std::pair{classes, std::int64_t{7}}}) {
      const auto oracle = evaluate_partition(g, std::span<const V32>(labels));
      const auto [q, cov] = labeling_quality(sg, std::span<const V32>(labels), num_labels);
      EXPECT_DOUBLE_EQ(q, oracle.modularity) << "K=" << k << " labels=" << num_labels;
      EXPECT_DOUBLE_EQ(cov, oracle.coverage) << "K=" << k << " labels=" << num_labels;
      const auto [uq, ucov] = labeling_quality(g, std::span<const V32>(labels), num_labels);
      EXPECT_DOUBLE_EQ(uq, oracle.modularity) << "labels=" << num_labels;
      EXPECT_DOUBLE_EQ(ucov, oracle.coverage) << "labels=" << num_labels;
    }
  }
}

// ---------------------------------------------------------------------------
// Builder

TEST(ShardBuilder, MatchesUnshardedBuild) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 21;
  const auto edges = generate_rmat<V32>(p);
  const auto g = build_community_graph(edges);

  ShardedGraphBuilder<V32> b(g.nv, 4, ShardSpill{});
  b.count_edges(std::span<const RawEdge<V32>>(edges.edges));
  b.finalize_ranges();
  const std::size_t chunk = 777;  // deliberately unaligned
  for (std::size_t i = 0; i < edges.edges.size(); i += chunk)
    b.add_edges(std::span<const RawEdge<V32>>(
        edges.edges.data() + i, std::min(chunk, edges.edges.size() - i)));
  auto sg = b.finalize();
  expect_same_graph(sg.assemble(), g);
}

TEST(ShardBuilder, SpillRoundTrip) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 22;
  const auto edges = generate_rmat<V32>(p);
  const auto g = build_community_graph(edges);
  const std::string dir = fresh_dir("shard_builder_spill");

  obs::MetricsRegistry reg;
  {
    obs::MetricsSession session(reg);
    ShardedGraphBuilder<V32> b(g.nv, 3, ShardSpill{true, dir});
    b.count_edges(std::span<const RawEdge<V32>>(edges.edges));
    b.finalize_ranges();
    const std::size_t chunk = 4096;
    for (std::size_t i = 0; i < edges.edges.size(); i += chunk)
      b.add_edges(std::span<const RawEdge<V32>>(
          edges.edges.data() + i, std::min(chunk, edges.edges.size() - i)));
    auto sg = b.finalize();
    expect_same_graph(sg.assemble(), g);
  }
  EXPECT_GT(reg.counter("shard.spill.writes").value(), 0);
  EXPECT_GT(reg.counter("shard.spill.reads").value(), 0);
  // Spill files are removed with the graph.
  EXPECT_TRUE(std::filesystem::is_empty(dir));
}

// ---------------------------------------------------------------------------
// Kernel bit-parity with the unsharded oracles

/// The score and match parity inputs: a scale-10 R-MAT, and the same
/// graph contracted once (level 2: self weights, merged volumes, summed
/// edge weights).
std::vector<CommunityGraph<V32>> parity_graphs() {
  auto g = rmat_graph(10);
  std::vector<Score> scores;
  (void)score_edges(g, ModularityScorer{}, scores);
  const auto m = EdgeSweepMatcher<V32>{}.match(g, scores);
  auto level2 = BucketSortContractor<V32>{}.contract(g, m).graph;
  std::vector<CommunityGraph<V32>> out;
  out.push_back(std::move(g));
  out.push_back(std::move(level2));
  return out;
}

/// Calls `check(scorer, name)` for every scorer the parity tests pin:
/// the shared kernels are generic over the scorer.
template <typename Check>
void for_each_parity_scorer(Check&& check) {
  check(ModularityScorer{}, "modularity");
  check(ConductanceScorer{}, "conductance");
  check(ResolutionModularityScorer{1.5}, "resolution-1.5");
}

TEST(ShardScore, SummaryMatchesUnsharded) {
  const auto graphs = parity_graphs();
  for (std::size_t level = 0; level < graphs.size(); ++level) {
    const auto& g = graphs[level];
    for_each_parity_scorer([&](const auto& scorer, const char* name) {
      SCOPED_TRACE(testing::Message() << name << ", level " << level + 1);
      std::vector<Score> scores;
      const auto oracle = score_edges(g, scorer, scores);
      for (int k : {1, 4}) {
        auto sg = partition_graph(g, k);
        const auto summary = sharded_score_summary(sg, scorer);
        EXPECT_EQ(summary.positive_edges, oracle.positive_edges);
        EXPECT_DOUBLE_EQ(summary.max_score, oracle.max_score);
      }
    });
  }
}

TEST(ShardMatch, ParityWithEdgeSweep) {
  const auto graphs = parity_graphs();
  for (std::size_t level = 0; level < graphs.size(); ++level) {
    const auto& g = graphs[level];
    for_each_parity_scorer([&](const auto& scorer, const char* name) {
      SCOPED_TRACE(testing::Message() << name << ", level " << level + 1);
      std::vector<Score> scores;
      (void)score_edges(g, scorer, scores);
      EdgeSweepMatcher<V32> matcher;
      const auto oracle = matcher.match(g, scores);
      EXPECT_GT(oracle.num_pairs, 0);
      for (int k : {1, 2, 8}) {
        auto sg = partition_graph(g, k);
        const auto m = sharded_match(sg, scorer);
        EXPECT_EQ(m.mate, oracle.mate) << "shard count " << k;
        EXPECT_EQ(m.num_pairs, oracle.num_pairs);
      }
    });
  }
}

TEST(ShardMatch, ParityWithEdgeSweepUnevenBlocksAcrossThreads) {
  // K=3 cuts blocks of unequal sizes; the live-edge bitmaps must keep the
  // matching bit-identical to the flat matcher at any thread count.
  const int saved_threads = omp_get_max_threads();
  const auto graphs = parity_graphs();
  for (std::size_t level = 0; level < graphs.size(); ++level) {
    const auto& g = graphs[level];
    for_each_parity_scorer([&](const auto& scorer, const char* name) {
      std::vector<Score> scores;
      (void)score_edges(g, scorer, scores);
      const auto oracle = EdgeSweepMatcher<V32>{}.match(g, scores);
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(testing::Message() << name << ", level " << level + 1 << ", "
                                        << threads << " threads");
        omp_set_num_threads(threads);
        auto sg = partition_graph(g, 3);
        const auto m = sharded_match(sg, scorer);
        EXPECT_EQ(m.mate, oracle.mate);
        EXPECT_EQ(m.num_pairs, oracle.num_pairs);
        EXPECT_EQ(m.sweeps, oracle.sweeps);
      }
    });
  }
  omp_set_num_threads(saved_threads);
}

TEST(ShardMatch, SpillSkipsDeadBlocks) {
  // Disjoint pairs (vertices [0, 6000)) all match in sweep 1, so their
  // blocks have no bid in sweep 2 and are not leased again; the path on
  // [6000, 9000) keeps its blocks bidding for several sweeps.
  EdgeList<V32> el;
  el.num_vertices = 9000;
  for (V32 v = 0; v < 6000; v += 2) el.add(v, v + 1);
  for (V32 v = 6000; v + 1 < 9000; ++v) el.add(v, v + 1);
  const auto g = build_community_graph(el);
  constexpr int kShards = 4;
  const ModularityScorer scorer;
  std::vector<Score> scores;
  (void)score_edges(g, scorer, scores);
  const auto oracle = EdgeSweepMatcher<V32>{}.match(g, scores);

  auto in_core = partition_graph(g, kShards);
  const auto in_core_m = sharded_match(in_core, scorer);
  const std::string dir = fresh_dir("shard_match_spill");
  auto spilled = partition_graph(g, kShards, ShardSpill{true, dir});
  ASSERT_EQ(spilled.num_shards(), kShards);
  obs::MetricsRegistry reg;
  BidStats work;
  Matching<V32> m;
  {
    obs::MetricsSession session(reg);
    m = sharded_match(spilled, scorer, &work);
  }
  EXPECT_EQ(m.mate, oracle.mate);
  EXPECT_EQ(m.mate, in_core_m.mate);
  EXPECT_EQ(m.sweeps, in_core_m.sweeps);
  ASSERT_GE(m.sweeps, 3) << "the path should need several sweeps";
  const auto reads = reg.counter("shard.spill.reads").value();
  EXPECT_LT(reads, static_cast<std::int64_t>(m.sweeps) * kShards);
  EXPECT_GE(reads, 2 * kShards);  // every block is read in sweeps 1 and 2
  EXPECT_EQ(reg.counter("match.edges_visited").value(), work.visited);
  EXPECT_EQ(reg.counter("match.edges_bid").value(), work.bids);
  EXPECT_EQ(reg.counter("match.bid_locks").value(), work.locks);
  EXPECT_LT(work.visited, static_cast<std::int64_t>(m.sweeps) * g.num_edges());
}

TEST(ShardContract, BitParityWithBucketSort) {
  const auto g = rmat_graph(10);
  std::vector<Score> scores;
  (void)score_edges(g, ModularityScorer{}, scores);
  EdgeSweepMatcher<V32> matcher;
  const auto m =
      matcher.match(g, scores);

  BucketSortContractor<V32> contractor;
  CommunityGraph<V32> g_copy(g);
  const auto oracle = contractor.contract(g_copy, m);

  for (int k : {1, 3, 8}) {
    auto sg = partition_graph(g, k);
    auto contracted = contract_sharded(sg, m);
    EXPECT_EQ(contracted.new_label, oracle.new_label);
    expect_same_graph(contracted.graph.assemble(), oracle.graph);
  }
}

TEST(ShardContract, AssignmentParityWithContractByLabels) {
  // The warm-start contraction at kernel level: for every labeling and
  // layout, the sharded graph assembles to contract_by_labels' output,
  // array for array, at 1 thread and at 4.
  const auto g = rmat_graph(12);
  const auto nv = static_cast<std::int64_t>(g.nv);

  struct Labeling {
    const char* name;
    std::vector<V32> label;
    std::int64_t num_labels;
  };
  std::vector<Labeling> labelings;
  {
    Labeling identity{"identity", std::vector<V32>(static_cast<std::size_t>(nv)), nv};
    std::iota(identity.label.begin(), identity.label.end(), V32{0});
    labelings.push_back(std::move(identity));

    const std::int64_t classes = nv / 50;
    Labeling random{"random", std::vector<V32>(static_cast<std::size_t>(nv)), classes};
    for (std::int64_t v = 0; v < nv; ++v)
      random.label[static_cast<std::size_t>(v)] =
          static_cast<V32>(mix64(static_cast<std::uint64_t>(v)) %
                           static_cast<std::uint64_t>(classes));
    labelings.push_back(std::move(random));

    // The first half of the vertices in class 0, the rest singletons.
    const std::int64_t half = nv / 2;
    Labeling giant{"giant", std::vector<V32>(static_cast<std::size_t>(nv)), nv - half + 1};
    for (std::int64_t v = 0; v < nv; ++v)
      giant.label[static_cast<std::size_t>(v)] = static_cast<V32>(v < half ? 0 : v - half + 1);
    labelings.push_back(std::move(giant));
  }

  const int saved_threads = omp_get_max_threads();
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    for (const auto& l : labelings) {
      const auto labels = std::span<const V32>(l.label);
      const auto oracle = contract_by_labels(g, labels, l.num_labels);
      for (const bool spill : {false, true}) {
        const std::string dir = fresh_dir("assignment_parity");
        for (int k : {1, 3, 8}) {
          SCOPED_TRACE(testing::Message() << l.name << ", " << threads << " threads, K=" << k
                                          << (spill ? ", spill" : ""));
          auto sg = partition_graph(g, k, ShardSpill{spill, dir});
          auto contracted = contract_sharded_assignment(sg, labels, l.num_labels);
          EXPECT_LE(contracted.num_shards(), k);
          expect_same_graph(contracted.assemble(), oracle);
        }
      }
    }
  }
  omp_set_num_threads(saved_threads);
}

// ---------------------------------------------------------------------------
// Detection parity (satellite 1: quality-parity guard)

TEST(ShardDetect, K1BitIdenticalToUnsharded) {
  const auto g = rmat_graph(12);
  DetectOptions uopts;
  uopts.agglomeration.min_coverage = 0.5;
  uopts.agglomeration.matcher = MatcherKind::kEdgeSweep;
  const auto ref = detect_communities(g, uopts);

  DetectOptions sopts;
  sopts.agglomeration.min_coverage = 0.5;
  const auto r = detect_communities_sharded(partition_graph(g, 1), sopts);
  EXPECT_EQ(r.community, ref.community);
  EXPECT_EQ(r.num_communities, ref.num_communities);
  EXPECT_EQ(r.reason, ref.reason);
  EXPECT_EQ(r.num_levels(), ref.num_levels());
  EXPECT_DOUBLE_EQ(r.final_modularity, ref.final_modularity);
  ASSERT_TRUE(r.algorithm.has_value());
  EXPECT_EQ(r.algorithm->name, "agglo-sharded");
}

TEST(ShardDetect, QualityParityAcrossK) {
  // Scale-15 R-MAT and an SBM: every K gives the same labels (the
  // sharded path is deterministic in K), and modularity stays within 5%
  // of the unsharded default plan — the ISSUE's quality-parity bound.
  for (const bool sbm : {false, true}) {
    const auto g = sbm ? sbm_graph() : rmat_graph(15);
    DetectOptions opts;
    opts.agglomeration.min_coverage = 0.5;
    const auto unsharded = detect_communities(g, opts);

    std::vector<V32> first_labels;
    for (int k : {1, 2, 8}) {
      const auto r = detect_communities_sharded(partition_graph(g, k), opts);
      if (first_labels.empty()) first_labels = r.community;
      EXPECT_EQ(r.community, first_labels) << "K=" << k << " diverged";
      EXPECT_GE(r.final_modularity, 0.95 * unsharded.final_modularity)
          << (sbm ? "sbm" : "rmat") << " K=" << k << ": sharded "
          << r.final_modularity << " vs unsharded " << unsharded.final_modularity;
    }
  }
}

TEST(ShardDetect, SpillBitIdentical) {
  const auto g = rmat_graph(12);
  DetectOptions opts;
  opts.agglomeration.min_coverage = 0.5;
  const auto in_core = detect_communities_sharded(partition_graph(g, 4), opts);

  const std::string dir = fresh_dir("shard_detect_spill");
  obs::MetricsRegistry reg;
  Clustering<V32> spilled;
  {
    obs::MetricsSession session(reg);
    spilled = detect_communities_sharded(
        partition_graph(g, 4, ShardSpill{true, dir}), opts);
  }
  EXPECT_EQ(spilled.community, in_core.community);
  EXPECT_DOUBLE_EQ(spilled.final_modularity, in_core.final_modularity);
  EXPECT_GT(reg.counter("shard.spill.writes").value(), 0);
  EXPECT_GT(reg.counter("shard.spill.reads").value(), 0);
  EXPECT_TRUE(std::filesystem::is_empty(dir));
}

// Pins the sharded labels of a fixed input to the value an earlier
// version of the library produced, so a change to the sharded graph's
// storage or its passes that alters the output fails here even when
// every path changes in step (the parity tests compare paths with each
// other, not with the past).
TEST(ShardDetect, LabelsPinnedAcrossVersions) {
  constexpr std::uint64_t kPinnedHash = 8526028370514745688ULL;
  const auto g = rmat_graph(12);
  DetectOptions opts;
  opts.agglomeration.min_coverage = 0.5;
  const auto fnv1a = [](const std::vector<V32>& labels) {
    std::uint64_t h = 14695981039346656037ULL;
    for (const V32 l : labels) {
      h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(l));
      h *= 1099511628211ULL;
    }
    return h;
  };
  for (const bool spill : {false, true}) {
    const std::string dir = fresh_dir("shard_detect_pinned");
    const auto r = detect_communities_sharded(partition_graph(g, 4, ShardSpill{spill, dir}), opts);
    ASSERT_EQ(r.community.size(), static_cast<std::size_t>(g.nv));
    EXPECT_EQ(fnv1a(r.community), kPinnedHash) << "spill=" << spill;
  }
}

// Satellite 3: a spill-file read failure is contained — the driver
// degrades to the best clustering so far with a structured error, and
// never returns torn data.
TEST(ShardDetect, SpillReadFaultContained) {
  const auto g = rmat_graph(12);
  const std::string dir = fresh_dir("shard_fault_spill");
  DetectOptions opts;
  opts.agglomeration.min_coverage = 0.5;

  // The first few snapshot reads happen during detection; failing one
  // mid-run must degrade, not throw or corrupt.
  fault::ScopedFault guard(fault::kSnapshotRead, 3);
  const auto r = detect_communities_sharded(
      partition_graph(g, 4, ShardSpill{true, dir}), opts);
  ASSERT_TRUE(is_degraded(r.reason));
  ASSERT_TRUE(r.error.has_value());
  EXPECT_EQ(r.error->code, ErrorCode::kInjectedFault);
  // The best-so-far labels are a valid dense partition of the graph.
  ASSERT_EQ(static_cast<std::int64_t>(r.community.size()), g.nv);
  for (const V32 c : r.community) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, static_cast<V32>(g.nv));
  }
}

TEST(ShardDetect, RejectsUnsupportedOptions) {
  const auto g = rmat_graph(8);
  DetectOptions size_capped;
  size_capped.agglomeration.min_coverage = 0.5;
  size_capped.agglomeration.max_community_size = 64;
  EXPECT_THROW((void)detect_communities_sharded(partition_graph(g, 2), size_capped),
               std::invalid_argument);

  DetectOptions checkpointed;
  checkpointed.agglomeration.min_coverage = 0.5;
  checkpointed.agglomeration.checkpoint.directory = fresh_dir("shard_ckpt_reject");
  EXPECT_THROW((void)detect_communities_sharded(partition_graph(g, 2), checkpointed),
               std::invalid_argument);
}

// Every stop the sharded driver shares with the unsharded one ends the
// same way: same reason, level count, labels and dendrogram as the
// unsharded edge-sweep run, at K=1 and K=3.
TEST(ShardDetect, TerminationParityWithUnsharded) {
  struct Case {
    const char* name;
    bool star;
    AgglomerationOptions agglomeration;
    TerminationReason expect;
  };
  std::vector<Case> cases;
  cases.push_back({"level cap", false, {}, TerminationReason::kLevelCap});
  cases.back().agglomeration.max_levels = 3;
  cases.push_back({"min communities", false, {}, TerminationReason::kMinCommunities});
  cases.back().agglomeration.min_communities = 400;
  cases.push_back({"local maximum", false, {}, TerminationReason::kLocalMaximum});
  cases.push_back({"stalled star", true, {}, TerminationReason::kStalled});
  cases.back().agglomeration.budget.max_stalled_levels = 3;
  cases.push_back({"hierarchy", false, {}, TerminationReason::kCoverage});
  cases.back().agglomeration.min_coverage = 0.3;
  cases.back().agglomeration.track_hierarchy = true;

  const auto rmat = rmat_graph(11);
  const auto star = build_community_graph(make_star<V32>(300));
  for (const auto& c : cases) {
    const auto& g = c.star ? star : rmat;
    DetectOptions opts;
    opts.agglomeration = c.agglomeration;
    opts.agglomeration.matcher = MatcherKind::kEdgeSweep;
    const auto ref = detect_communities(g, opts);
    ASSERT_EQ(ref.reason, c.expect) << c.name;
    for (int k : {1, 3}) {
      const auto r = detect_communities_sharded(partition_graph(g, k), opts);
      EXPECT_EQ(r.reason, ref.reason) << c.name << " K=" << k;
      EXPECT_EQ(r.num_levels(), ref.num_levels()) << c.name << " K=" << k;
      EXPECT_EQ(r.num_communities, ref.num_communities) << c.name << " K=" << k;
      EXPECT_EQ(r.community, ref.community) << c.name << " K=" << k;
      EXPECT_EQ(r.hierarchy, ref.hierarchy) << c.name << " K=" << k;
      EXPECT_EQ(r.error.has_value(), ref.error.has_value()) << c.name << " K=" << k;
    }
  }

  // A memory ceiling nothing fits under stops after the grace levels
  // with the best clustering so far: dense, valid labels.
  DetectOptions tiny;
  tiny.agglomeration.budget.max_memory_bytes = 1;
  tiny.agglomeration.budget.grace_levels = 2;
  for (int k : {1, 3}) {
    const auto r = detect_communities_sharded(partition_graph(rmat, k), tiny);
    EXPECT_EQ(r.reason, TerminationReason::kMemoryBudget) << "K=" << k;
    ASSERT_TRUE(r.error.has_value());
    EXPECT_EQ(r.error->code, ErrorCode::kMemoryBudget);
    EXPECT_EQ(r.num_levels(), 2);
    ASSERT_EQ(static_cast<std::int64_t>(r.community.size()), rmat.nv);
    std::vector<char> used(static_cast<std::size_t>(r.num_communities), 0);
    for (const V32 c : r.community) {
      ASSERT_GE(c, 0);
      ASSERT_LT(c, r.num_communities);
      used[static_cast<std::size_t>(c)] = 1;
    }
    EXPECT_EQ(std::count(used.begin(), used.end(), 1), r.num_communities);
  }
}

// ---------------------------------------------------------------------------
// Plan wiring

TEST(ShardPlan, FromNameAndDispatch) {
  const auto p = DetectPlan::FromName("agglo-sharded");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->algorithm(), AlgorithmKind::kAggloSharded);
  EXPECT_EQ(p->name(), "agglo-sharded");
  EXPECT_EQ(p->shard().shards, 4);
  EXPECT_FALSE(p->shard().spill);
  EXPECT_EQ(p->metric_token(), "agglo_sharded");

  const auto g = rmat_graph(10);
  DetectOptions opts;
  opts.agglomeration.min_coverage = 0.5;
  opts.agglomeration.matcher = MatcherKind::kEdgeSweep;
  const auto ref = detect_communities(g, opts);

  ShardOptions sh;
  sh.shards = 2;
  const auto r = detect_communities(g, DetectPlan::AggloSharded(sh), opts);
  EXPECT_EQ(r.community, ref.community);
  ASSERT_TRUE(r.algorithm.has_value());
  EXPECT_EQ(r.algorithm->name, "agglo-sharded");
}

// ---------------------------------------------------------------------------
// Delta routing (dyn/ deltas stay shard-local)

TEST(ShardDelta, RoutingMatchesUnsharded) {
  // A base graph with some self-loops, so self-loop deltas can hit
  // present and absent loops alike.
  DeltaBatch<V32> loops;
  for (V32 v = 0; v < 40; v += 2) loops.insert(v, v, 3);
  const auto g = apply_delta(rmat_graph(10), loops).graph;

  DeltaBatch<V32> batch;
  for (int i = 0; i < 300; ++i)
    batch.insert(static_cast<V32>((i * 37) % g.nv), static_cast<V32>((i * 53 + 1) % g.nv),
                 1 + i % 3);
  for (int i = 0; i < 80; ++i)
    batch.erase(static_cast<V32>((i * 11) % g.nv), static_cast<V32>((i * 13 + 2) % g.nv));
  // Reweights of mostly absent edges (upserts), and of present edges to
  // a new weight and to their current weight (a no-op).
  for (int i = 0; i < 40; ++i)
    batch.reweight(static_cast<V32>((i * 7) % g.nv), static_cast<V32>((i * 29 + 3) % g.nv),
                   5);
  for (EdgeId e = 0; e < g.num_edges(); e += 97) {
    const auto i = static_cast<std::size_t>(e);
    batch.reweight(g.efirst[i], g.esecond[i], e % 2 == 0 ? g.eweight[i] : g.eweight[i] + 4);
  }
  // Self-loop deltas: insert onto a present and an absent loop, delete
  // a present and an absent one, reweight a present loop to a new and
  // to its current weight, and an absent one (an upsert).
  std::vector<V32> absent;
  for (V32 v = 1; absent.size() < 3; v += 2)
    if (g.self_weight[static_cast<std::size_t>(v)] == 0) absent.push_back(v);
  batch.insert(0, 0, 2);
  batch.insert(absent[0], absent[0], 2);
  batch.erase(2, 2);
  batch.erase(absent[1], absent[1]);
  batch.reweight(4, 4, 7);
  batch.reweight(6, 6, g.self_weight[6]);
  batch.reweight(absent[2], absent[2], 1);
  const auto normalized = normalize_deltas(batch);

  const auto oracle = apply_delta(g, std::span<const EdgeDelta<V32>>(normalized));
  const auto& want = oracle.report;
  EXPECT_GT(want.strengthened, 0);
  EXPECT_GT(want.upserts, 0);
  EXPECT_GT(want.reweighted, 0);
  EXPECT_EQ(want.self_loop_updates, 7);
  EXPECT_LT(want.effective, want.applied);  // the no-op reweights and deletes

  const auto expect_same_report = [&](const DeltaApplyReport& got, const std::string& what) {
    EXPECT_EQ(got.applied, want.applied) << what;
    EXPECT_EQ(got.inserted, want.inserted) << what;
    EXPECT_EQ(got.strengthened, want.strengthened) << what;
    EXPECT_EQ(got.deleted, want.deleted) << what;
    EXPECT_EQ(got.missing_deletes, want.missing_deletes) << what;
    EXPECT_EQ(got.reweighted, want.reweighted) << what;
    EXPECT_EQ(got.upserts, want.upserts) << what;
    EXPECT_EQ(got.self_loop_updates, want.self_loop_updates) << what;
    EXPECT_EQ(got.effective, want.effective) << what;
  };
  for (int k : {1, 3, 4}) {
    auto sg = partition_graph(g, k);
    const auto applied = apply_delta(sg, std::span<const EdgeDelta<V32>>(normalized));
    expect_same_report(applied.report, "K=" + std::to_string(k));
    EXPECT_EQ(applied.touched, oracle.touched) << "K=" << k;
    expect_same_graph(sg.assemble(), oracle.graph);
  }

  // Spilled blocks are re-written dirty and survive the round trip.
  const std::string dir = fresh_dir("shard_delta_spill");
  auto sg = partition_graph(g, 3, ShardSpill{true, dir});
  const auto applied = apply_delta(sg, std::span<const EdgeDelta<V32>>(normalized));
  expect_same_report(applied.report, "K=3 spilled");
  EXPECT_EQ(applied.touched, oracle.touched);
  expect_same_graph(sg.assemble(), oracle.graph);
}

// ---------------------------------------------------------------------------
// Sharded dynamic facade

TEST(ShardDyn, ApplyBatchQuality) {
  const auto g = rmat_graph(10);
  ShardedDynamicOptions opts;
  opts.detect.agglomeration.min_coverage = 0.5;
  ShardedCommunities<V32> dyn(partition_graph(g, 3), opts);
  const double q0 = dyn.clustering().final_modularity;
  EXPECT_GT(dyn.num_communities(), 0);

  DeltaBatch<V32> batch;
  for (int i = 0; i < 200; ++i)
    batch.insert(static_cast<V32>((i * 3) % g.nv), static_cast<V32>((i * 7 + 1) % g.nv), 2);
  const auto row = dyn.apply_batch(batch);
  ASSERT_TRUE(row.has_value()) << row.error().message();
  EXPECT_GT(row->touched, 0);
  EXPECT_GE(row->dirty, row->touched);
  EXPECT_GT(row->num_communities, 0);
  // The kept-prior guard bounds the committed quality from below by the
  // prior labeling's score on the mutated graph.
  auto labels = dyn.clustering().community;
  auto& sg = dyn.graph();
  const auto quality = labeling_quality(
      sg, std::span<const V32>(labels.data(), labels.size()), dyn.num_communities());
  EXPECT_NEAR(quality.first, row->modularity, 1e-9);
  EXPECT_GT(row->modularity, 0.5 * q0);
  // The row carries the warm run's termination, so a degraded run shows.
  EXPECT_EQ(row->termination, to_string(dyn.clustering().reason));
  EXPECT_EQ(row->degraded, is_degraded(dyn.clustering().reason));

  // A no-op batch keeps the clustering bit-for-bit.
  DeltaBatch<V32> noop;
  const auto row2 = dyn.apply_batch(noop);
  ASSERT_TRUE(row2.has_value());
  EXPECT_EQ(row2->touched, 0);
  EXPECT_EQ(dyn.clustering().community, labels);
}

}  // namespace
}  // namespace commdet
