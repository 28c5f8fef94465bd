#include <gtest/gtest.h>
#include <omp.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "commdet/core/detect.hpp"
#include "commdet/core/metrics.hpp"
#include "commdet/gen/planted_partition.hpp"
#include "commdet/gen/rmat.hpp"
#include "commdet/gen/simple_graphs.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/robust/checkpoint.hpp"
#include "test_support.hpp"

namespace commdet {
namespace {

using V32 = std::int32_t;

void expect_same_graph(const CommunityGraph<V32>& a, const CommunityGraph<V32>& b) {
  EXPECT_EQ(a.nv, b.nv);
  EXPECT_EQ(a.total_weight, b.total_weight);
  EXPECT_EQ(a.bucket_begin, b.bucket_begin);
  EXPECT_EQ(a.bucket_end, b.bucket_end);
  EXPECT_EQ(a.self_weight, b.self_weight);
  EXPECT_EQ(a.volume, b.volume);
  EXPECT_EQ(a.efirst, b.efirst);
  EXPECT_EQ(a.esecond, b.esecond);
  EXPECT_EQ(a.eweight, b.eweight);
}

/// Labels, per-level trajectory and quality, bit for bit.
void expect_same_run(const Clustering<V32>& a, const Clustering<V32>& b) {
  EXPECT_EQ(a.community, b.community);
  EXPECT_EQ(a.num_communities, b.num_communities);
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.final_modularity),
            std::bit_cast<std::uint64_t>(b.final_modularity));
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t k = 0; k < a.levels.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "level " << k + 1);
    const auto& x = a.levels[k];
    const auto& y = b.levels[k];
    EXPECT_EQ(x.nv_before, y.nv_before);
    EXPECT_EQ(x.ne_before, y.ne_before);
    EXPECT_EQ(x.positive_edges, y.positive_edges);
    EXPECT_EQ(x.pairs_matched, y.pairs_matched);
    EXPECT_EQ(x.nv_after, y.nv_after);
    EXPECT_EQ(x.ne_after, y.ne_after);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.modularity), std::bit_cast<std::uint64_t>(y.modularity));
  }
}

TEST(DetectFacade, BorrowedInputIsUntouchedAndMatchesOwnedRun) {
  // detect_communities reads the caller's graph in place at level 1 and
  // never recycles it; the by-value driver recycles its own copy.  Both
  // must take the same trajectory (one thread: the default matcher is
  // deterministic there), and the caller's graph must come back as it was.
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 8;
  const auto g = build_community_graph(generate_rmat<V32>(p));
  const auto pristine = g;
  ThreadCountGuard guard;
  omp_set_num_threads(1);

  struct Case {
    const char* name;
    AgglomerationOptions agg;
  };
  std::vector<Case> cases(3);
  cases[0].name = "default matcher";
  cases[1].name = "edge sweep";
  cases[1].agg.matcher = MatcherKind::kEdgeSweep;
  cases[2].name = "size cap";
  cases[2].agg.max_community_size = 40;
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    DetectOptions opts;
    opts.agglomeration = c.agg;
    const auto borrowed = detect_communities(g, opts);
    expect_same_graph(g, pristine);
    const auto owned = agglomerate(CommunityGraph<V32>(g), ModularityScorer{}, c.agg);
    EXPECT_GE(owned.levels.size(), 3u);
    expect_same_run(borrowed, owned);
  }

  // Checkpointing every level, then resuming from the first generation.
  const ScopedTempDir scoped_dir("commdet_borrowed");
  const auto dir = scoped_dir.string();
  {
    SCOPED_TRACE("checkpoint every level");
    const auto owned = agglomerate(CommunityGraph<V32>(g), ModularityScorer{});
    DetectOptions opts;
    opts.agglomeration.checkpoint.directory = dir;
    opts.agglomeration.checkpoint.every_levels = 1;
    opts.agglomeration.checkpoint.keep_generations = 1 << 20;
    expect_same_run(detect_communities(g, opts), owned);
    expect_same_graph(g, pristine);
    const auto generations = list_checkpoints(dir);
    ASSERT_GE(generations.size(), 2u);
    auto first = read_checkpoint_file<V32>(generations.back().second);  // newest first
    EXPECT_EQ(first.next_level, 2);
    expect_same_run(resume_detect(g, std::move(first), opts), owned);

    // A stop before level 1 completes checkpoints the borrowed input itself.
    std::filesystem::remove_all(dir);
    opts.agglomeration.budget.max_seconds = 1e-12;
    const auto stopped = detect_communities(g, opts);
    EXPECT_EQ(stopped.reason, TerminationReason::kCheckpointed);
    EXPECT_TRUE(stopped.levels.empty());
    auto before_level_1 = load_latest_checkpoint<V32>(dir);
    ASSERT_TRUE(before_level_1.has_value());
    EXPECT_EQ(before_level_1->next_level, 1);
    expect_same_graph(before_level_1->graph, pristine);
    opts.agglomeration.budget.max_seconds = 0.0;
    expect_same_run(resume_detect(g, std::move(*before_level_1), opts), owned);
  }
}

TEST(DetectFacade, ModularityMatchesTemplatedDriver) {
  const auto g = build_community_graph(make_caveman<V32>(8, 6));
  const auto direct = agglomerate(CommunityGraph<V32>(g), ModularityScorer{});
  const auto facade = detect_communities(g);
  // Non-determinism allows different matchings; quality must agree in
  // range and the facade must produce a valid clustering.
  EXPECT_NEAR(facade.final_modularity, direct.final_modularity, 0.15);
  EXPECT_GT(facade.final_modularity, 0.5);
}

TEST(DetectFacade, EveryScorerRuns) {
  const auto g = build_community_graph(make_caveman<V32>(6, 6));
  for (const auto kind : {ScorerKind::kModularity, ScorerKind::kConductance,
                          ScorerKind::kHeavyEdge, ScorerKind::kResolutionModularity}) {
    DetectOptions opts;
    opts.scorer = kind;
    opts.resolution_gamma = 2.0;
    opts.agglomeration.min_coverage = 0.5;  // needed by the unbounded scorers
    const auto r = detect_communities(g, opts);
    EXPECT_GT(r.num_communities, 0) << to_string(kind);
    EXPECT_LE(r.num_communities, 36) << to_string(kind);
  }
}

TEST(DetectFacade, RejectsUnboundedScorersWithoutLimits) {
  const auto g = build_community_graph(make_caveman<V32>(4, 5));
  DetectOptions opts;
  opts.scorer = ScorerKind::kHeavyEdge;
  EXPECT_THROW((void)detect_communities(g, opts), std::invalid_argument);
  opts.scorer = ScorerKind::kConductance;
  EXPECT_THROW((void)detect_communities(g, opts), std::invalid_argument);
  // Any limit makes them legal.
  opts.agglomeration.max_levels = 3;
  EXPECT_NO_THROW((void)detect_communities(g, opts));
}

TEST(DetectFacade, RefinementImprovesAndRelabelsConsistently) {
  PlantedPartitionParams p;
  p.num_vertices = 2048;
  p.num_blocks = 32;
  p.internal_degree = 14;
  p.external_degree = 4;
  const auto g = build_community_graph(generate_planted_partition<V32>(p));

  DetectOptions plain;
  const auto base = detect_communities(g, plain);

  DetectOptions refined = plain;
  refined.refine = true;
  const auto better = detect_communities(g, refined);

  EXPECT_GE(better.final_modularity, base.final_modularity);
  // Reported numbers must agree with from-scratch evaluation.
  const auto q = evaluate_partition(
      g, std::span<const V32>(better.community.data(), better.community.size()));
  EXPECT_NEAR(q.modularity, better.final_modularity, 1e-9);
  EXPECT_NEAR(q.coverage, better.final_coverage, 1e-9);
  EXPECT_EQ(q.num_communities, better.num_communities);
}

TEST(DetectFacade, VCycleRefinementMode) {
  PlantedPartitionParams p;
  p.num_vertices = 2048;
  p.num_blocks = 32;
  p.internal_degree = 12;
  p.external_degree = 6;
  const auto g = build_community_graph(generate_planted_partition<V32>(p));

  DetectOptions plain;
  const auto base = detect_communities(g, plain);

  DetectOptions vcycle = plain;
  vcycle.refine_mode = DetectOptions::RefineMode::kVCycle;
  const auto better = detect_communities(g, vcycle);

  EXPECT_GE(better.final_modularity, base.final_modularity - 1e-12);
  const auto q = evaluate_partition(
      g, std::span<const V32>(better.community.data(), better.community.size()));
  EXPECT_NEAR(q.modularity, better.final_modularity, 1e-9);
  EXPECT_EQ(q.num_communities, better.num_communities);
}

TEST(Nmi, IdenticalAndRelabeledScoreOne) {
  const std::vector<std::int64_t> a{0, 0, 1, 1, 2, 2};
  const std::vector<std::int64_t> b{9, 9, 4, 4, 7, 7};
  EXPECT_NEAR(normalized_mutual_information(std::span<const std::int64_t>(a),
                                            std::span<const std::int64_t>(a)),
              1.0, 1e-12);
  EXPECT_NEAR(normalized_mutual_information(std::span<const std::int64_t>(a),
                                            std::span<const std::int64_t>(b)),
              1.0, 1e-12);
}

TEST(Nmi, IndependentPartitionsScoreLow) {
  // a: halves; b: alternating — statistically independent on 8 points.
  const std::vector<std::int64_t> a{0, 0, 0, 0, 1, 1, 1, 1};
  const std::vector<std::int64_t> b{0, 1, 0, 1, 0, 1, 0, 1};
  EXPECT_NEAR(normalized_mutual_information(std::span<const std::int64_t>(a),
                                            std::span<const std::int64_t>(b)),
              0.0, 1e-12);
}

TEST(Nmi, TrivialPartitionAgainstAnything) {
  const std::vector<std::int64_t> all_same{0, 0, 0, 0};
  const std::vector<std::int64_t> split{0, 0, 1, 1};
  // One-cluster vs nontrivial: no information shared.
  EXPECT_NEAR(normalized_mutual_information(std::span<const std::int64_t>(all_same),
                                            std::span<const std::int64_t>(split)),
              0.0, 1e-12);
  // One-cluster vs one-cluster: identical by convention.
  EXPECT_NEAR(normalized_mutual_information(std::span<const std::int64_t>(all_same),
                                            std::span<const std::int64_t>(all_same)),
              1.0, 1e-12);
}

TEST(Nmi, AgreesDirectionallyWithAri) {
  PlantedPartitionParams p;
  p.num_vertices = 1024;
  p.num_blocks = 16;
  p.internal_degree = 16;
  p.external_degree = 2;
  const auto g = build_community_graph(generate_planted_partition<V32>(p));
  const auto r = detect_communities(g);
  std::vector<std::int64_t> truth(static_cast<std::size_t>(p.num_vertices));
  for (std::int64_t v = 0; v < p.num_vertices; ++v)
    truth[static_cast<std::size_t>(v)] = planted_block_of(p, v);
  const std::span<const V32> labels(r.community.data(), r.community.size());
  const double nmi =
      normalized_mutual_information(std::span<const std::int64_t>(truth), labels);
  const double ari = adjusted_rand_index(std::span<const std::int64_t>(truth), labels);
  EXPECT_GT(nmi, 0.5);
  EXPECT_GT(nmi, ari - 0.3);  // same ballpark; NMI is typically the higher one
}

}  // namespace
}  // namespace commdet
