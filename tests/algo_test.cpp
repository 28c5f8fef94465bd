// The pluggable algorithm engine: DetectPlan dispatch, parallel CDLP
// (sync/async), parallel Louvain, the shared label-keyed contractor,
// and the provenance/report surface all backends share.
#include <gtest/gtest.h>

#include <omp.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "commdet/algo/cdlp.hpp"
#include "commdet/algo/louvain.hpp"
#include "commdet/algo/plan.hpp"
#include "commdet/cc/connected_components.hpp"
#include "commdet/contract/label_contractor.hpp"
#include "commdet/core/detect.hpp"
#include "commdet/core/metrics.hpp"
#include "commdet/dyn/dynamic_communities.hpp"
#include "commdet/gen/planted_partition.hpp"
#include "commdet/gen/rmat.hpp"
#include "commdet/gen/simple_graphs.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/graph/validate.hpp"
#include "commdet/obs/report.hpp"

namespace commdet {
namespace {

using V32 = std::int32_t;
using V64 = std::int64_t;

/// Labels are dense in [0, k) and every vertex is covered.
template <VertexId V>
void expect_valid_partition(const CommunityGraph<V>& g, const Clustering<V>& c) {
  ASSERT_EQ(static_cast<std::int64_t>(c.community.size()),
            static_cast<std::int64_t>(g.nv));
  std::vector<bool> seen(static_cast<std::size_t>(c.num_communities), false);
  for (const V l : c.community) {
    ASSERT_GE(l, 0);
    ASSERT_LT(static_cast<std::int64_t>(l), c.num_communities);
    seen[static_cast<std::size_t>(l)] = true;
  }
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_TRUE(seen[i]) << "label " << i << " unused (not dense)";
  // Reported quality must agree with from-scratch evaluation.
  const auto q =
      evaluate_partition(g, std::span<const V>(c.community.data(), c.community.size()));
  EXPECT_NEAR(q.modularity, c.final_modularity, 1e-9);
  EXPECT_NEAR(q.coverage, c.final_coverage, 1e-9);
}

TEST(AlgoPlan, FactoriesAndNames) {
  EXPECT_EQ(DetectPlan().algorithm(), AlgorithmKind::kAgglomerative);
  EXPECT_EQ(DetectPlan::Agglomerative().name(), "agglomerative");
  EXPECT_EQ(DetectPlan::LabelPropagationSync().name(), "lp-sync");
  EXPECT_EQ(DetectPlan::LabelPropagationAsync().name(), "lp-async");
  EXPECT_EQ(DetectPlan::LouvainRefined().name(), "louvain");
  EXPECT_EQ(DetectPlan::LabelPropagationSync().metric_token(), "lp_sync");

  CdlpOptions copts;
  copts.max_iterations = 7;
  EXPECT_EQ(DetectPlan::LabelPropagationSync(copts).cdlp().max_iterations, 7);
  PlmOptions popts;
  popts.refine = false;
  EXPECT_FALSE(DetectPlan::LouvainRefined(popts).plm().refine);
}

TEST(AlgoPlan, FromName) {
  ASSERT_TRUE(DetectPlan::FromName("agglo").has_value());
  EXPECT_EQ(DetectPlan::FromName("agglo")->algorithm(), AlgorithmKind::kAgglomerative);
  EXPECT_EQ(DetectPlan::FromName("agglomerative")->algorithm(),
            AlgorithmKind::kAgglomerative);
  EXPECT_EQ(DetectPlan::FromName("lp-sync")->algorithm(),
            AlgorithmKind::kLabelPropagationSync);
  EXPECT_EQ(DetectPlan::FromName("lp-async")->algorithm(),
            AlgorithmKind::kLabelPropagationAsync);
  EXPECT_EQ(DetectPlan::FromName("louvain")->algorithm(), AlgorithmKind::kLouvain);
  EXPECT_FALSE(DetectPlan::FromName("cnm").has_value());
  EXPECT_FALSE(DetectPlan::FromName("").has_value());
}

TEST(AlgoDispatch, EveryBackendProducesValidPartitions) {
  const std::vector<DetectPlan> plans = {
      DetectPlan::Agglomerative(), DetectPlan::LabelPropagationSync(),
      DetectPlan::LabelPropagationAsync(), DetectPlan::LouvainRefined()};

  PlantedPartitionParams p;
  p.num_vertices = 2048;
  p.num_blocks = 32;
  p.internal_degree = 14;
  p.external_degree = 4;
  const std::vector<CommunityGraph<V32>> graphs = {
      build_community_graph(make_caveman<V32>(8, 6)),
      build_community_graph(make_cycle<V32>(64)),
      build_community_graph(make_star<V32>(50)),
      build_community_graph(generate_planted_partition<V32>(p)),
  };

  for (const auto& g : graphs) {
    for (const auto& plan : plans) {
      const auto c = detect_communities(g, plan);
      expect_valid_partition(g, c);
      ASSERT_TRUE(c.algorithm.has_value()) << plan.name();
      EXPECT_EQ(c.algorithm->name, plan.name());
    }
  }
}

TEST(AlgoDispatch, AgglomerativePlanMatchesPlanlessOverload) {
  const auto g = build_community_graph(make_caveman<V32>(8, 6));
  const auto via_plan = detect_communities(g, DetectPlan::Agglomerative());
  const auto direct = detect_communities(g);
  EXPECT_NEAR(via_plan.final_modularity, direct.final_modularity, 0.15);
  ASSERT_TRUE(direct.algorithm.has_value());
  EXPECT_EQ(direct.algorithm->name, "agglomerative");
  EXPECT_EQ(direct.algorithm->iterations, direct.num_levels());
}

TEST(AlgoCdlp, RecoversCavemanCommunities) {
  // 8 cliques of 6, one inter-clique edge each: CDLP's easy case.
  const auto g = build_community_graph(make_caveman<V32>(8, 6));
  const auto c = cdlp_cluster(g);
  expect_valid_partition(g, c);
  EXPECT_TRUE(c.algorithm->converged);
  EXPECT_EQ(c.num_communities, 8);
  EXPECT_GT(c.final_modularity, 0.5);
}

TEST(AlgoCdlp, SyncBitIdenticalUnderThreadPermutation) {
  PlantedPartitionParams p;
  p.num_vertices = 4096;
  p.num_blocks = 64;
  p.internal_degree = 12;
  p.external_degree = 6;
  const auto g = build_community_graph(generate_planted_partition<V32>(p));

  const int saved = omp_get_max_threads();
  std::vector<std::vector<V32>> runs;
#if defined(__SANITIZE_THREAD__)
  // Resizing the OpenMP team docks/releases pool threads through
  // libgomp's futex barrier, which an uninstrumented runtime hides from
  // TSan (spurious race at region entry).  Under TSan, check repeated
  // runs at the ambient team size instead; the cross-size permutation
  // runs in every non-TSan configuration.
  const std::vector<int> counts(4, saved);
#else
  const std::vector<int> counts = {1, 2, 4, 8};
#endif
  for (const int t : counts) {
    omp_set_num_threads(t);
    runs.push_back(cdlp_cluster(g).community);
  }
  omp_set_num_threads(saved);
  for (std::size_t i = 1; i < runs.size(); ++i)
    EXPECT_EQ(runs[0], runs[i]) << "sync CDLP diverged at thread count run " << i;
}

TEST(AlgoCdlp, AsyncConvergesWithinCap) {
  PlantedPartitionParams p;
  p.num_vertices = 4096;
  p.num_blocks = 64;
  p.internal_degree = 12;
  p.external_degree = 6;
  const auto g = build_community_graph(generate_planted_partition<V32>(p));
  CdlpOptions opts;
  opts.max_iterations = 64;
  const auto c = cdlp_cluster(g, opts, /*synchronous=*/false);
  expect_valid_partition(g, c);
  EXPECT_TRUE(c.algorithm->converged);
  EXPECT_LE(c.algorithm->iterations, opts.max_iterations);
  EXPECT_EQ(c.reason, TerminationReason::kLocalMaximum);
}

TEST(AlgoCdlp, IterationCapReportsNotConvergedNotDegraded) {
  // A star oscillates under synchronous updates: center and leaves swap
  // labels forever, so the cap is what terminates the run.
  const auto g = build_community_graph(make_star<V32>(64));
  CdlpOptions opts;
  opts.max_iterations = 3;
  const auto c = cdlp_cluster(g, opts, /*synchronous=*/true);
  EXPECT_EQ(c.algorithm->iterations, 3);
  if (!c.algorithm->converged) {
    EXPECT_EQ(c.reason, TerminationReason::kLevelCap);
    EXPECT_FALSE(is_degraded(c.reason));  // a cap is policy, not failure
  }
}

TEST(AlgoCdlp, ConvergenceFractionStopsEarly) {
  PlantedPartitionParams p;
  p.num_vertices = 4096;
  p.num_blocks = 64;
  p.internal_degree = 12;
  p.external_degree = 6;
  const auto g = build_community_graph(generate_planted_partition<V32>(p));
  CdlpOptions exact;
  const auto full = cdlp_cluster(g, exact);
  CdlpOptions loose;
  loose.convergence_fraction = 0.2;  // stop once <20% of vertices churn
  const auto early = cdlp_cluster(g, loose);
  EXPECT_LE(early.algorithm->iterations, full.algorithm->iterations);
  EXPECT_TRUE(early.algorithm->converged);
}

TEST(AlgoCdlp, EmptyAndEdgelessGraphs) {
  CommunityGraph<V32> empty;
  const auto c0 = cdlp_cluster(empty);
  EXPECT_EQ(c0.num_communities, 0);

  EdgeList<V32> isolated;
  isolated.num_vertices = 5;  // no edges: everyone keeps their own label
  const auto c1 = cdlp_cluster(build_community_graph(isolated));
  EXPECT_EQ(c1.num_communities, 5);
}

TEST(AlgoLouvain, RecoversPlantedStructure) {
  PlantedPartitionParams p;
  p.num_vertices = 4096;
  p.num_blocks = 64;
  p.internal_degree = 14;
  p.external_degree = 4;
  const auto g = build_community_graph(generate_planted_partition<V32>(p));
  const auto c = parallel_louvain(g);
  expect_valid_partition(g, c);
  EXPECT_GT(c.final_modularity, 0.5);
  EXPECT_GT(c.algorithm->iterations, 0);
  EXPECT_EQ(c.algorithm->refine, "local-move");
}

TEST(AlgoLouvain, ModularityWithinFivePercentOfAgglomerationOnRmat) {
  RmatParams p;
  p.scale = 15;
  p.edge_factor = 8;
  p.seed = 24;
  const auto g = build_community_graph(largest_component(generate_rmat<V64>(p)));

  DetectOptions dopts;
  dopts.agglomeration.min_coverage = 0.5;
  const auto agglo = detect_communities(g, dopts);
  const auto louvain = detect_communities(g, DetectPlan::LouvainRefined(), dopts);
  expect_valid_partition(g, louvain);
  EXPECT_GE(louvain.final_modularity, 0.95 * agglo.final_modularity)
      << "louvain " << louvain.final_modularity << " vs agglomeration "
      << agglo.final_modularity;
}

TEST(AlgoLouvain, RefineOffSkipsProvenanceTag) {
  const auto g = build_community_graph(make_caveman<V32>(6, 5));
  PlmOptions opts;
  opts.refine = false;
  const auto c = parallel_louvain(g, opts);
  expect_valid_partition(g, c);
  EXPECT_TRUE(c.algorithm->refine.empty());
}

TEST(AlgoContractor, MatchesManualContraction) {
  // K4 plus a pendant, contracted by {0,1}{2,3}{4}: check volumes,
  // self-weights, and surviving cross-edges against hand counts.
  EdgeList<V32> e;
  e.num_vertices = 5;
  e.add(0, 1, 3);
  e.add(0, 2, 1);
  e.add(0, 3, 1);
  e.add(1, 2, 1);
  e.add(1, 3, 1);
  e.add(2, 3, 2);
  e.add(3, 4, 5);
  const auto g = build_community_graph(e);
  const std::vector<V32> labels = {0, 0, 1, 1, 2};
  const auto coarse = contract_by_labels(g, std::span<const V32>(labels), 3);

  ASSERT_EQ(coarse.nv, 3);
  EXPECT_EQ(coarse.total_weight, g.total_weight);
  const auto validation = validate_graph(coarse);
  EXPECT_TRUE(validation.ok()) << validation.error;
  EXPECT_EQ(coarse.self_weight[0], 3);  // edge 0-1 folded
  EXPECT_EQ(coarse.self_weight[1], 2);  // edge 2-3 folded
  EXPECT_EQ(coarse.self_weight[2], 0);
  // Volumes are additive under contraction.
  Weight vol0 = 0;
  for (const std::size_t v : {std::size_t{0}, std::size_t{1}}) vol0 += g.volume[v];
  EXPECT_EQ(coarse.volume[0], vol0);
  // Cross weights: {0,1}-{2,3} = 4, {2,3}-{4} = 5.
  const auto q = evaluate_partition(g, std::span<const V32>(labels.data(), labels.size()));
  const auto identity = std::vector<V32>{0, 1, 2};
  const auto qc =
      evaluate_partition(coarse, std::span<const V32>(identity.data(), identity.size()));
  EXPECT_NEAR(q.modularity, qc.modularity, 1e-12);  // contraction-invariant
}

TEST(AlgoDynamic, LabelPropagationRefreshPlan) {
  const auto g = build_community_graph(make_caveman<V64>(8, 6));
  DynamicOptions opts;
  opts.refresh_every = 2;
  opts.refresh_plan = DetectPlan::LabelPropagationSync();
  DynamicCommunities<V64> dyn(CommunityGraph<V64>(g), opts);

  int refreshes = 0;
  for (int b = 0; b < 4; ++b) {
    DeltaBatch<V64> batch;
    batch.insert(static_cast<V64>(b), static_cast<V64>(b + 6), 1);
    const auto row = dyn.apply_batch(batch);
    ASSERT_TRUE(row.has_value()) << row.error().message();
    if (row->refreshed) {
      ++refreshes;
      EXPECT_EQ(row->refresh_algorithm, "lp-sync");
    } else {
      EXPECT_TRUE(row->refresh_algorithm.empty());
    }
  }
  EXPECT_EQ(refreshes, 2);  // cadence 2 over 4 batches
  EXPECT_EQ(dyn.stats().full_refreshes, 2);
  // The maintained clustering stays valid after LP refresh.
  const auto q = evaluate_partition(
      dyn.graph(), std::span<const V64>(dyn.clustering().community.data(),
                                        dyn.clustering().community.size()));
  EXPECT_EQ(q.num_communities, dyn.num_communities());
}

TEST(AlgoReport, ProvenanceInRunReportAndBatchRows) {
  const auto g = build_community_graph(make_caveman<V32>(6, 5));
  const auto c = detect_communities(g, DetectPlan::LabelPropagationSync());
  const std::string json = obs::run_report_json(c);
  EXPECT_NE(json.find("\"algorithm\":{\"name\":\"lp-sync\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"converged\":"), std::string::npos);

  // A hand-built clustering (no provenance) serializes algorithm: null.
  Clustering<V32> bare;
  EXPECT_NE(obs::run_report_json(bare).find("\"algorithm\":null"), std::string::npos);

  obs::DynamicRunStats stats;
  obs::DynamicBatchRow row;
  row.refreshed = true;
  row.refresh_algorithm = "lp-sync";
  stats.batch_rows.push_back(row);
  EXPECT_NE(obs::dynamic_stats_json(stats).find("\"refresh_algorithm\":\"lp-sync\""),
            std::string::npos);
}

}  // namespace
}  // namespace commdet
