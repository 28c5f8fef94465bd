#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "commdet/core/metrics.hpp"
#include "commdet/gen/simple_graphs.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/platform/platform_info.hpp"

namespace commdet {
namespace {

using V32 = std::int32_t;

TEST(Metrics, TwoCliquesPerfectPartition) {
  // Two K4s joined by one edge, labeled by clique.
  EdgeList<V32> el;
  el.num_vertices = 8;
  for (V32 u = 0; u < 4; ++u)
    for (V32 v = u + 1; v < 4; ++v) {
      el.add(u, v);
      el.add(u + 4, v + 4);
    }
  el.add(0, 4);
  const auto g = build_community_graph(el);
  const std::vector<V32> labels{0, 0, 0, 0, 1, 1, 1, 1};
  const auto q = evaluate_partition(g, std::span<const V32>(labels));
  EXPECT_EQ(q.num_communities, 2);
  // W = 13, each community: internal 6, vol 13.
  EXPECT_NEAR(q.coverage, 12.0 / 13.0, 1e-12);
  EXPECT_NEAR(q.modularity, 2 * (6.0 / 13.0 - (13.0 / 26.0) * (13.0 / 26.0)), 1e-12);
  EXPECT_NEAR(q.max_conductance, 1.0 / 13.0, 1e-12);
  EXPECT_EQ(q.largest_community, 4);
  EXPECT_EQ(q.smallest_community, 4);
}

TEST(Metrics, SingletonPartitionHasZeroCoverage) {
  const auto g = build_community_graph(make_cycle<V32>(8));
  std::vector<V32> labels(8);
  for (V32 v = 0; v < 8; ++v) labels[static_cast<std::size_t>(v)] = v;
  const auto q = evaluate_partition(g, std::span<const V32>(labels));
  EXPECT_DOUBLE_EQ(q.coverage, 0.0);
  EXPECT_LT(q.modularity, 0.0);  // all-singleton modularity is negative
  EXPECT_DOUBLE_EQ(q.max_conductance, 1.0);
}

TEST(Metrics, WholeGraphPartitionHasModularityZero) {
  const auto g = build_community_graph(make_clique<V32>(6));
  const std::vector<V32> labels(6, 0);
  const auto q = evaluate_partition(g, std::span<const V32>(labels));
  EXPECT_DOUBLE_EQ(q.coverage, 1.0);
  EXPECT_NEAR(q.modularity, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(q.max_conductance, 0.0);
}

TEST(Ari, IdenticalPartitionsScoreOne) {
  const std::vector<std::int64_t> a{0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(std::span<const std::int64_t>(a),
                                       std::span<const std::int64_t>(a)),
                   1.0);
}

TEST(Ari, RelabeledPartitionsStillScoreOne) {
  const std::vector<std::int64_t> a{0, 0, 1, 1, 2, 2};
  const std::vector<std::int64_t> b{5, 5, 9, 9, 7, 7};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(std::span<const std::int64_t>(a),
                                       std::span<const std::int64_t>(b)),
                   1.0);
}

TEST(Ari, OrthogonalPartitionsScoreLow) {
  // a splits by half, b alternates: agreement is near chance.
  const std::vector<std::int64_t> a{0, 0, 0, 0, 1, 1, 1, 1};
  const std::vector<std::int64_t> b{0, 1, 0, 1, 0, 1, 0, 1};
  EXPECT_LT(adjusted_rand_index(std::span<const std::int64_t>(a),
                                std::span<const std::int64_t>(b)),
            0.1);
}

TEST(Ari, MixedLabelTypes) {
  const std::vector<std::int64_t> a{0, 0, 1, 1};
  const std::vector<std::int32_t> b{3, 3, 0, 0};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(std::span<const std::int64_t>(a),
                                       std::span<const std::int32_t>(b)),
                   1.0);
}

TEST(Platform, DetectsPlausibleHost) {
  const auto info = detect_platform();
  EXPECT_GE(info.logical_cpus, 1);
  EXPECT_GE(info.omp_max_threads, 1);
  EXPECT_GT(info.total_ram_bytes, 0);
  EXPECT_FALSE(info.cpu_model.empty());
  const auto table = format_platform_table(info);
  EXPECT_NE(table.find("Processor:"), std::string::npos);
  EXPECT_NE(table.find("OpenMP"), std::string::npos);
  EXPECT_FALSE(info.thp_mode.empty());
  EXPECT_NE(table.find("THP mode:"), std::string::npos);
}

TEST(Platform, ThpModeIsTheBracketedWord) {
  EXPECT_EQ(selected_thp_mode("always [madvise] never"), "madvise");
  EXPECT_EQ(selected_thp_mode("[always] madvise never"), "always");
  EXPECT_EQ(selected_thp_mode("always madvise [never]"), "never");
  EXPECT_EQ(selected_thp_mode(""), "unknown");
  EXPECT_EQ(selected_thp_mode("always madvise never"), "unknown");
  EXPECT_EQ(selected_thp_mode("always [] never"), "unknown");
}

}  // namespace
}  // namespace commdet
