#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "commdet/core/agglomerate.hpp"
#include "commdet/core/metrics.hpp"
#include "commdet/gen/planted_partition.hpp"
#include "commdet/gen/rmat.hpp"
#include "commdet/gen/simple_graphs.hpp"
#include "commdet/graph/builder.hpp"

namespace commdet {
namespace {

using V32 = std::int32_t;

TEST(Hierarchy, TopLevelMatchesFinalCommunity) {
  const auto el = make_caveman<V32>(8, 6);
  AgglomerationOptions opts;
  opts.track_hierarchy = true;
  const auto r = agglomerate(el, ModularityScorer{}, opts);
  ASSERT_EQ(static_cast<int>(r.hierarchy.size()), r.num_levels());
  EXPECT_EQ(r.labels_at_level(r.num_levels()), r.community);
}

TEST(Hierarchy, LevelZeroIsSingletons) {
  const auto el = make_caveman<V32>(4, 5);
  AgglomerationOptions opts;
  opts.track_hierarchy = true;
  const auto r = agglomerate(el, ModularityScorer{}, opts);
  const auto labels = r.labels_at_level(0);
  for (V32 v = 0; v < 20; ++v) EXPECT_EQ(labels[static_cast<std::size_t>(v)], v);
}

TEST(Hierarchy, CutsAreRefinementsOfEachOther) {
  PlantedPartitionParams p;
  p.num_vertices = 1024;
  p.num_blocks = 16;
  const auto el = generate_planted_partition<V32>(p);
  AgglomerationOptions opts;
  opts.track_hierarchy = true;
  const auto r = agglomerate(el, ModularityScorer{}, opts);
  ASSERT_GT(r.num_levels(), 1);
  // Level k+1 must merge whole level-k communities: vertices sharing a
  // label at level k share it at level k+1.
  for (int k = 0; k + 1 <= r.num_levels(); ++k) {
    const auto fine = r.labels_at_level(k);
    const auto coarse = r.labels_at_level(k + 1);
    std::vector<V32> coarse_of(fine.size(), kNoVertex<V32>);
    for (std::size_t v = 0; v < fine.size(); ++v) {
      auto& slot = coarse_of[static_cast<std::size_t>(fine[v])];
      if (slot == kNoVertex<V32>) slot = coarse[v];
      ASSERT_EQ(slot, coarse[v]) << "level " << k << " not refined by level " << k + 1;
    }
  }
}

TEST(Hierarchy, CommunityCountsShrinkMonotonically) {
  const auto el = make_caveman<V32>(16, 6);
  AgglomerationOptions opts;
  opts.track_hierarchy = true;
  const auto r = agglomerate(el, ModularityScorer{}, opts);
  std::int64_t prev = 16 * 6;
  for (int k = 1; k <= r.num_levels(); ++k) {
    const auto labels = r.labels_at_level(k);
    std::int64_t count = 0;
    for (const auto c : labels) count = std::max<std::int64_t>(count, c + 1);
    EXPECT_LT(count, prev);
    prev = count;
  }
  EXPECT_EQ(prev, r.num_communities);
}

TEST(Hierarchy, DisabledByDefault) {
  const auto r = agglomerate(make_caveman<V32>(4, 5), ModularityScorer{});
  EXPECT_TRUE(r.hierarchy.empty());
}

/// The original-vertex map an eager driver would hold: every level's
/// new_label applied to every original vertex, in order.
std::vector<V32> compose_hierarchy(const Clustering<V32>& r, std::size_t original_nv) {
  std::vector<V32> labels(original_nv);
  std::iota(labels.begin(), labels.end(), V32{0});
  for (const auto& new_label : r.hierarchy)
    for (auto& c : labels) c = new_label[static_cast<std::size_t>(c)];
  return labels;
}

TEST(Hierarchy, LazyCommunityMapEqualsComposedHierarchyOnEveryStop) {
  // The driver folds level labels into `community` only when the graph
  // has halved since the last fold, and on exit.  Whatever the stop,
  // the result must be the full composition of the recorded levels.
  // One thread keeps the default matcher deterministic, so the level
  // counts measured below hold for the capped and budgeted reruns.
  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  RmatParams rp;
  rp.scale = 12;
  rp.edge_factor = 8;
  const auto rmat = build_community_graph(generate_rmat<V32>(rp));
  const auto star = build_community_graph(make_star<V32>(400));
  struct Case {
    const char* name;
    const CommunityGraph<V32>* g;
    AgglomerationOptions opts;
    TerminationReason expected;
  };
  std::vector<Case> cases;
  AgglomerationOptions base;
  base.track_hierarchy = true;
  cases.push_back({"rmat", &rmat, base, TerminationReason::kLocalMaximum});
  for (const auto& [name, g] : {std::pair{"rmat", &rmat}, std::pair{"star", &star}}) {
    // Stop on coverage a little short of where the unconstrained run ends.
    auto covered = base;
    covered.min_coverage =
        0.9 * agglomerate(CommunityGraph<V32>(*g), ModularityScorer{}, base).final_coverage;
    const int levels =
        agglomerate(CommunityGraph<V32>(*g), ModularityScorer{}, covered).num_levels();
    ASSERT_GE(levels, 6) << name;
    cases.push_back({name, g, covered, TerminationReason::kCoverage});
    for (const int cap : {1, levels / 3, levels - 1}) {
      auto capped = covered;
      capped.max_levels = cap;
      cases.push_back({name, g, capped, TerminationReason::kLevelCap});
    }
    auto deadline = covered;
    deadline.budget.max_seconds = 1e-9;
    deadline.budget.grace_levels = levels / 2;
    cases.push_back({name, g, deadline, TerminationReason::kDeadline});
  }

  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << c.name << " " << to_string(c.expected) << " after "
                                    << c.opts.max_levels << " / " << c.opts.budget.grace_levels);
    const auto r = agglomerate(CommunityGraph<V32>(*c.g), ModularityScorer{}, c.opts);
    EXPECT_EQ(r.reason, c.expected);
    ASSERT_EQ(static_cast<int>(r.hierarchy.size()), r.num_levels());
    EXPECT_EQ(r.community, compose_hierarchy(r, static_cast<std::size_t>(c.g->nv)));
    V32 max_label = 0;
    for (const auto l : r.community) max_label = std::max(max_label, l);
    EXPECT_EQ(max_label + 1, r.num_communities);
  }
  omp_set_num_threads(saved_threads);
}

TEST(ResolutionScorer, GammaOneMatchesPlainModularity) {
  ModularityScorer plain;
  ResolutionModularityScorer res{1.0};
  const EdgeContext ctx{.edge_weight = 3,
                        .volume_c = 10,
                        .volume_d = 7,
                        .self_c = 2,
                        .self_d = 1,
                        .total_weight = 50};
  EXPECT_DOUBLE_EQ(plain.score(ctx), res.score(ctx));
}

TEST(ResolutionScorer, HigherGammaYieldsMoreCommunities) {
  PlantedPartitionParams p;
  p.num_vertices = 2048;
  p.num_blocks = 32;
  p.internal_degree = 14;
  p.external_degree = 4;
  const auto g = build_community_graph(generate_planted_partition<V32>(p));

  const auto coarse = agglomerate(CommunityGraph<V32>(g), ResolutionModularityScorer{0.5});
  const auto medium = agglomerate(CommunityGraph<V32>(g), ResolutionModularityScorer{1.0});
  const auto fine = agglomerate(CommunityGraph<V32>(g), ResolutionModularityScorer{4.0});
  EXPECT_LE(coarse.num_communities, medium.num_communities);
  EXPECT_LT(medium.num_communities, fine.num_communities);
}

TEST(ResolutionScorer, GammaZeroMergesEverythingConnected) {
  // gamma = 0 makes every edge score positive (pure coverage greed), so
  // a connected graph collapses to one community at the local maximum.
  const auto el = make_cycle<V32>(32);
  const auto r = agglomerate(el, ResolutionModularityScorer{0.0});
  EXPECT_EQ(r.num_communities, 1);
}

}  // namespace
}  // namespace commdet
