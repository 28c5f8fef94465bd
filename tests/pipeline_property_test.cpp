// Cross-component property sweep: the full pipeline (generator ->
// builder -> driver -> metrics) must satisfy its invariants for every
// combination of workload shape, scorer, and matcher.
//
// These are the repository's widest-net tests: each case asserts
// termination, label density, incremental-vs-recomputed quality
// agreement, coverage monotonicity, and weight conservation.  The
// "Hash" cases also replay the run's recorded matchings through the
// standalone hash-chain contractor (Feo's method, the reference the
// paper's bucket sort replaces): every level must come out the same.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "commdet/contract/hash_chain_contractor.hpp"
#include "commdet/core/agglomerate.hpp"
#include "commdet/core/metrics.hpp"
#include "commdet/gen/barabasi_albert.hpp"
#include "commdet/gen/erdos_renyi.hpp"
#include "commdet/gen/planted_partition.hpp"
#include "commdet/gen/rmat.hpp"
#include "commdet/gen/simple_graphs.hpp"
#include "commdet/gen/watts_strogatz.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/graph/validate.hpp"

namespace commdet {
namespace {

using V32 = std::int32_t;

EdgeList<V32> make_workload(const std::string& shape, std::uint64_t seed) {
  if (shape == "rmat") {
    RmatParams p;
    p.scale = 10;
    p.edge_factor = 8;
    p.seed = seed;
    return generate_rmat<V32>(p);
  }
  if (shape == "sbm") {
    PlantedPartitionParams p;
    p.num_vertices = 1024;
    p.num_blocks = 16;
    p.seed = seed;
    return generate_planted_partition<V32>(p);
  }
  if (shape == "er") return generate_erdos_renyi<V32>(800, 4000, seed);
  if (shape == "ws") {
    WattsStrogatzParams p;
    p.num_vertices = 900;
    p.rewire_probability = 0.2;
    p.seed = seed;
    return generate_watts_strogatz<V32>(p);
  }
  if (shape == "ba") {
    BarabasiAlbertParams p;
    p.num_vertices = 700;
    p.edges_per_vertex = 3;
    p.seed = seed;
    return generate_barabasi_albert<V32>(p);
  }
  if (shape == "caveman") return make_caveman<V32>(24, 8);
  if (shape == "grid") return make_grid<V32>(30, 30);
  ADD_FAILURE() << "unknown shape " << shape;
  return {};
}

/// Rebuilds the matching a level merged from its recorded labels: the
/// driver contracts one matching per level, so each new label holds one
/// vertex or one matched pair.
Matching<V32> matching_of_level(std::span<const V32> label) {
  Matching<V32> m;
  m.mate.assign(label.size(), kNoVertex<V32>);
  std::vector<V32> first(label.size(), kNoVertex<V32>);
  for (std::size_t v = 0; v < label.size(); ++v) {
    auto& f = first[static_cast<std::size_t>(label[v])];
    if (f == kNoVertex<V32>) {
      f = static_cast<V32>(v);
      continue;
    }
    EXPECT_EQ(m.mate[static_cast<std::size_t>(f)], kNoVertex<V32>) << "label " << label[v];
    m.mate[static_cast<std::size_t>(f)] = static_cast<V32>(v);
    m.mate[v] = f;
    ++m.num_pairs;
  }
  return m;
}

/// Replays every level of `r` from `g` through the hash-chain
/// contractor and checks it reproduces the driver's labels, level
/// statistics and final quality.
void expect_hash_chain_replay(const CommunityGraph<V32>& g, const Clustering<V32>& r) {
  ASSERT_EQ(r.hierarchy.size(), r.levels.size());
  CommunityGraph<V32> cur = g;
  for (std::size_t k = 0; k < r.hierarchy.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "level " << k);
    const auto& label = r.hierarchy[k];
    ASSERT_EQ(static_cast<std::int64_t>(label.size()), static_cast<std::int64_t>(cur.nv));
    const auto m = matching_of_level(std::span<const V32>(label.data(), label.size()));
    EXPECT_EQ(m.num_pairs, r.levels[k].pairs_matched);
    auto next = HashChainContractor<V32>{}.contract(cur, m);
    ASSERT_TRUE(validate_graph(next.graph).ok()) << validate_graph(next.graph).error;
    EXPECT_EQ(next.new_label, label);
    EXPECT_EQ(static_cast<std::int64_t>(next.graph.nv), r.levels[k].nv_after);
    EXPECT_EQ(next.graph.num_edges(), r.levels[k].ne_after);
    EXPECT_EQ(next.graph.total_weight, g.total_weight);
    EXPECT_DOUBLE_EQ(detail::partition_coverage(next.graph), r.levels[k].coverage);
    EXPECT_DOUBLE_EQ(detail::partition_modularity(next.graph), r.levels[k].modularity);
    cur = std::move(next.graph);
  }
  EXPECT_EQ(static_cast<std::int64_t>(cur.nv), static_cast<std::int64_t>(r.num_communities));
  EXPECT_DOUBLE_EQ(detail::partition_modularity(cur), r.final_modularity);
}

/// "Bucket": the driver's own contraction only.  "Hash": also replay the
/// run through the hash-chain contractor.
enum class Contraction { kBucket, kHashReplay };

using Combo = std::tuple<std::string, MatcherKind, Contraction, std::uint64_t>;

class PipelineProperty : public ::testing::TestWithParam<Combo> {};

TEST_P(PipelineProperty, InvariantsHoldEndToEnd) {
  const auto& [shape, matcher, contraction, seed] = GetParam();
  const auto el = make_workload(shape, seed);
  const auto g = build_community_graph(el);
  ASSERT_TRUE(validate_graph(g).ok());

  AgglomerationOptions opts;
  opts.matcher = matcher;
  opts.track_hierarchy = true;
  const auto r = agglomerate(g, ModularityScorer{}, opts);

  // 1. Termination is a recognized reason and levels are consistent.
  EXPECT_TRUE(r.reason == TerminationReason::kLocalMaximum ||
              r.reason == TerminationReason::kNoMatches);
  EXPECT_EQ(static_cast<int>(r.hierarchy.size()), r.num_levels());

  // 2. Labels dense in [0, num_communities).
  std::vector<bool> seen(static_cast<std::size_t>(r.num_communities), false);
  for (const auto c : r.community) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, r.num_communities);
    seen[static_cast<std::size_t>(c)] = true;
  }
  for (const bool s : seen) EXPECT_TRUE(s);

  // 3. Incremental quality equals from-scratch quality.
  const auto q = evaluate_partition(g, std::span<const V32>(r.community.data(),
                                                            r.community.size()));
  EXPECT_NEAR(q.modularity, r.final_modularity, 1e-9);
  EXPECT_NEAR(q.coverage, r.final_coverage, 1e-9);
  EXPECT_EQ(q.num_communities, r.num_communities);

  // 4. Coverage non-decreasing, community counts strictly decreasing.
  double cov = -1.0;
  std::int64_t nv = static_cast<std::int64_t>(g.nv);
  for (const auto& l : r.levels) {
    EXPECT_GE(l.coverage, cov);
    cov = l.coverage;
    EXPECT_EQ(l.nv_before, nv);
    EXPECT_LT(l.nv_after, l.nv_before);
    nv = l.nv_after;
  }

  // 5. Modularity at the local maximum is non-negative for these
  //    workloads (merging any positive edge was taken).
  if (r.reason == TerminationReason::kLocalMaximum && g.num_edges() > 0) {
    EXPECT_GE(r.final_modularity, -1e-9);
  }

  // 6. The hash-chain contractor reproduces every level.
  if (contraction == Contraction::kHashReplay) expect_hash_chain_replay(g, r);
}

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  const auto& [shape, matcher, contraction, seed] = info.param;
  std::string m = matcher == MatcherKind::kUnmatchedList   ? "List"
                  : matcher == MatcherKind::kEdgeSweep     ? "Sweep"
                                                           : "Greedy";
  std::string c = contraction == Contraction::kBucket ? "Bucket" : "Hash";
  return shape + "_" + m + "_" + c + "_s" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, PipelineProperty,
    ::testing::Combine(
        ::testing::Values("rmat", "sbm", "er", "ws", "ba", "caveman", "grid"),
        ::testing::Values(MatcherKind::kUnmatchedList, MatcherKind::kEdgeSweep,
                          MatcherKind::kSequentialGreedy),
        ::testing::Values(Contraction::kBucket, Contraction::kHashReplay),
        ::testing::Values<std::uint64_t>(42, 1337)),
    combo_name);

// Determinism of the sequential configuration: the greedy matcher must
// give identical results across runs.
TEST(PipelineDeterminism, SequentialConfigurationIsReproducible) {
  const auto el = make_workload("sbm", 7);
  AgglomerationOptions opts;
  opts.matcher = MatcherKind::kSequentialGreedy;
  const auto a = agglomerate(build_community_graph(el), ModularityScorer{}, opts);
  const auto b = agglomerate(build_community_graph(el), ModularityScorer{}, opts);
  EXPECT_EQ(a.community, b.community);
  EXPECT_EQ(a.num_communities, b.num_communities);
  EXPECT_DOUBLE_EQ(a.final_modularity, b.final_modularity);
}

// Thread-count oversubscription: results stay valid when OpenMP runs
// more threads than cores.
TEST(PipelineOversubscription, EightThreadsOnAnyHost) {
  const int saved = omp_get_max_threads();
  omp_set_num_threads(8);
  const auto el = make_workload("rmat", 3);
  const auto g = build_community_graph(el);
  ASSERT_TRUE(validate_graph(g).ok());
  const auto r = agglomerate(g, ModularityScorer{});
  const auto q = evaluate_partition(g, std::span<const V32>(r.community.data(),
                                                            r.community.size()));
  EXPECT_NEAR(q.modularity, r.final_modularity, 1e-9);
  omp_set_num_threads(saved);
}

}  // namespace
}  // namespace commdet
