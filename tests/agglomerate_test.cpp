#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "commdet/core/agglomerate.hpp"
#include "commdet/core/metrics.hpp"
#include "commdet/gen/planted_partition.hpp"
#include "commdet/gen/rmat.hpp"
#include "commdet/gen/simple_graphs.hpp"
#include "commdet/graph/builder.hpp"
#include "test_support.hpp"

namespace commdet {
namespace {

using V32 = std::int32_t;

TEST(Agglomerate, CavemanGraphRecoversCaves) {
  // 8 cliques of 8 joined in a ring: the modularity optimum is one
  // community per cave.  The greedy matching is non-deterministic in
  // which of the equally-scored level-1 merges it takes (a bridge edge
  // ties with the clique edge between the two ring-attachment vertices),
  // so assert strong agreement with the caves rather than exact recovery.
  const auto el = make_caveman<V32>(8, 8);
  const auto result = agglomerate(el, ModularityScorer{});
  EXPECT_GE(result.num_communities, 6);
  EXPECT_LE(result.num_communities, 10);
  EXPECT_EQ(result.reason, TerminationReason::kLocalMaximum);
  std::vector<std::int64_t> caves(64);
  for (int v = 0; v < 64; ++v) caves[static_cast<std::size_t>(v)] = v / 8;
  const double ari = adjusted_rand_index(
      std::span<const std::int64_t>(caves),
      std::span<const V32>(result.community.data(), result.community.size()));
  EXPECT_GT(ari, 0.7);
  EXPECT_GT(result.final_modularity, 0.6);
}

TEST(Agglomerate, LabelsAreDense) {
  const auto el = make_caveman<V32>(5, 6);
  const auto result = agglomerate(el, ModularityScorer{});
  std::vector<bool> seen(static_cast<std::size_t>(result.num_communities), false);
  for (const auto c : result.community) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, result.num_communities);
    seen[static_cast<std::size_t>(c)] = true;
  }
  for (const bool s : seen) EXPECT_TRUE(s);
}

TEST(Agglomerate, CoverageTerminationFiresEarly) {
  const auto el = make_caveman<V32>(16, 8);
  AgglomerationOptions opts;
  opts.min_coverage = 0.5;  // the paper's DIMACS-style criterion
  const auto result = agglomerate(el, ModularityScorer{}, opts);
  EXPECT_EQ(result.reason, TerminationReason::kCoverage);
  EXPECT_GE(result.final_coverage, 0.5);
}

TEST(Agglomerate, MinCommunitiesFloor) {
  const auto el = make_caveman<V32>(32, 4);
  AgglomerationOptions opts;
  opts.min_communities = 40;  // more than the 32 caves
  opts.matcher = MatcherKind::kSequentialGreedy;
  const auto result = agglomerate(el, ModularityScorer{}, opts);
  EXPECT_EQ(result.reason, TerminationReason::kMinCommunities);
  EXPECT_LE(result.num_communities, 40 + 32);  // fired as soon as crossed
}

TEST(Agglomerate, LevelCapRespected) {
  const auto el = make_caveman<V32>(64, 4);
  AgglomerationOptions opts;
  opts.max_levels = 1;
  const auto result = agglomerate(el, ModularityScorer{}, opts);
  EXPECT_EQ(result.reason, TerminationReason::kLevelCap);
  EXPECT_EQ(result.num_levels(), 1);
}

TEST(Agglomerate, MaxCommunitySizeConstrainsMerges) {
  const auto el = make_caveman<V32>(8, 8);
  AgglomerationOptions opts;
  opts.max_community_size = 4;
  const auto result = agglomerate(el, ModularityScorer{}, opts);
  // No community may exceed 4 original vertices.
  std::vector<std::int64_t> count(static_cast<std::size_t>(result.num_communities), 0);
  for (const auto c : result.community) ++count[static_cast<std::size_t>(c)];
  for (const auto k : count) EXPECT_LE(k, 4);
  EXPECT_EQ(result.reason, TerminationReason::kNoMatches);
}

TEST(Agglomerate, SizeCapWithEdgeSweepIsThreadCountIndependent) {
  // The edge sweep is deterministic and the size-cap fold adds integers,
  // so a capped run gives the same labels at any thread count; no
  // community may outgrow the cap.
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 8;
  const auto el = generate_rmat<V32>(p);
  AgglomerationOptions opts;
  opts.matcher = MatcherKind::kEdgeSweep;
  opts.max_community_size = 25;
  ThreadCountGuard guard;
  omp_set_num_threads(1);
  const auto one = agglomerate(el, ModularityScorer{}, opts);
  omp_set_num_threads(4);
  const auto four = agglomerate(el, ModularityScorer{}, opts);
  EXPECT_EQ(one.community, four.community);
  EXPECT_EQ(one.levels.size(), four.levels.size());
  std::vector<std::int64_t> count(static_cast<std::size_t>(four.num_communities), 0);
  for (const auto c : four.community) ++count[static_cast<std::size_t>(c)];
  EXPECT_LE(*std::max_element(count.begin(), count.end()), 25);
  EXPECT_GT(*std::max_element(count.begin(), count.end()), 2) << "the cap never bound";
}

TEST(Agglomerate, HeavyEdgeScorerWithCoverageStop) {
  // HeavyEdge never reaches a local maximum, so coverage must stop it.
  const auto el = make_caveman<V32>(8, 8);
  AgglomerationOptions opts;
  opts.min_coverage = 0.6;
  const auto result = agglomerate(el, HeavyEdgeScorer{}, opts);
  EXPECT_EQ(result.reason, TerminationReason::kCoverage);
  EXPECT_GE(result.final_coverage, 0.6);
}

TEST(Agglomerate, ConductanceScorerMergesIsolatedPairs) {
  // Disjoint edges: merging each pair drops conductance to zero.
  EdgeList<V32> el;
  el.num_vertices = 10;
  for (V32 v = 0; v < 10; v += 2) el.add(v, v + 1);
  const auto result = agglomerate(el, ConductanceScorer{});
  EXPECT_EQ(result.num_communities, 5);
  EXPECT_DOUBLE_EQ(result.final_coverage, 1.0);
}

TEST(Agglomerate, DriverTelemetryIsConsistent) {
  const auto el = make_caveman<V32>(16, 6);
  const auto result = agglomerate(el, ModularityScorer{});
  ASSERT_GT(result.num_levels(), 0);
  std::int64_t prev_nv = 16 * 6;
  for (const auto& l : result.levels) {
    EXPECT_EQ(l.nv_before, prev_nv);
    EXPECT_EQ(l.nv_after, l.nv_before - l.pairs_matched);
    EXPECT_GT(l.pairs_matched, 0);
    prev_nv = l.nv_after;
  }
  EXPECT_EQ(prev_nv, result.num_communities);
  // Coverage is monotonically non-decreasing across levels.
  double prev_cov = 0.0;
  for (const auto& l : result.levels) {
    EXPECT_GE(l.coverage, prev_cov);
    prev_cov = l.coverage;
  }
}

TEST(Agglomerate, IncrementalQualityMatchesFromScratchEvaluation) {
  PlantedPartitionParams p;
  p.num_vertices = 2048;
  p.num_blocks = 32;
  const auto el = generate_planted_partition<V32>(p);
  const auto g = build_community_graph(el);
  const auto result = agglomerate(g, ModularityScorer{});
  const auto q = evaluate_partition(
      g, std::span<const V32>(result.community.data(), result.community.size()));
  EXPECT_NEAR(q.modularity, result.final_modularity, 1e-9);
  EXPECT_NEAR(q.coverage, result.final_coverage, 1e-9);
  EXPECT_EQ(q.num_communities, result.num_communities);
}

TEST(Agglomerate, RecoversPlantedPartition) {
  PlantedPartitionParams p;
  p.num_vertices = 4096;
  p.num_blocks = 64;
  p.internal_degree = 20;
  p.external_degree = 1;
  const auto el = generate_planted_partition<V32>(p);
  // Pure agglomeration over-merges without constraints (the paper notes
  // real applications impose external constraints); cap community size at
  // twice the planted block size.
  AgglomerationOptions opts;
  opts.max_community_size = 2 * (p.num_vertices / p.num_blocks);
  const auto result = agglomerate(el, ModularityScorer{}, opts);
  std::vector<std::int64_t> truth(static_cast<std::size_t>(p.num_vertices));
  for (std::int64_t v = 0; v < p.num_vertices; ++v) truth[static_cast<std::size_t>(v)] = planted_block_of(p, v);
  const double ari = adjusted_rand_index(
      std::span<const std::int64_t>(truth),
      std::span<const V32>(result.community.data(), result.community.size()));
  EXPECT_GT(ari, 0.6) << "planted partition recovery too weak";
}

TEST(Agglomerate, AllMatcherContractorCombinationsAgreeOnQualityBallpark) {
  const auto el = make_caveman<V32>(12, 8);
  for (const auto matcher : {MatcherKind::kUnmatchedList, MatcherKind::kEdgeSweep,
                             MatcherKind::kSequentialGreedy}) {
    AgglomerationOptions opts;
    opts.matcher = matcher;
    const auto result = agglomerate(el, ModularityScorer{}, opts);
    EXPECT_GE(result.num_communities, 6) << to_string(matcher);
    EXPECT_LE(result.num_communities, 15) << to_string(matcher);
    EXPECT_GT(result.final_modularity, 0.6);
  }
}

TEST(Agglomerate, EdgeWeightsDefineCommunitiesAgainstTopology) {
  // A 4-cycle of "groups": heavy edges pair vertices (0,1) and (2,3);
  // light edges connect the pairs.  Weighted modularity must group by
  // weight, not by the (symmetric) topology.
  EdgeList<V32> el;
  el.num_vertices = 4;
  el.add(0, 1, 100);
  el.add(2, 3, 100);
  el.add(1, 2, 1);
  el.add(3, 0, 1);
  const auto r = agglomerate(el, ModularityScorer{});
  EXPECT_EQ(r.num_communities, 2);
  EXPECT_EQ(r.community[0], r.community[1]);
  EXPECT_EQ(r.community[2], r.community[3]);
  EXPECT_NE(r.community[0], r.community[2]);
}

TEST(Agglomerate, SingleVertexAndEmptyGraphs) {
  EdgeList<V32> single;
  single.num_vertices = 1;
  const auto r1 = agglomerate(single, ModularityScorer{});
  EXPECT_EQ(r1.num_communities, 1);
  EXPECT_EQ(r1.reason, TerminationReason::kLocalMaximum);

  EdgeList<V32> empty;
  empty.num_vertices = 0;
  const auto r2 = agglomerate(empty, ModularityScorer{});
  EXPECT_EQ(r2.num_communities, 0);
}

TEST(Agglomerate, RmatRunsToCoverageWithPositiveModularity) {
  RmatParams p;
  p.scale = 11;
  p.edge_factor = 8;
  AgglomerationOptions opts;
  opts.min_coverage = 0.5;
  const auto result = agglomerate(generate_rmat<V32>(p), ModularityScorer{}, opts);
  EXPECT_GT(result.final_modularity, 0.0);
  EXPECT_LT(result.num_communities, 2048);
}

}  // namespace
}  // namespace commdet
