#include <gtest/gtest.h>
#include <omp.h>

#include <cstdint>
#include <functional>
#include <numeric>
#include <utility>
#include <vector>

#include "commdet/contract/bucket_sort_contractor.hpp"
#include "commdet/gen/erdos_renyi.hpp"
#include "commdet/gen/planted_partition.hpp"
#include "commdet/gen/rmat.hpp"
#include "commdet/gen/simple_graphs.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/match/edge_sweep_matcher.hpp"
#include "commdet/match/matching.hpp"
#include "commdet/match/sequential_greedy_matcher.hpp"
#include "commdet/match/unmatched_list_matcher.hpp"
#include "commdet/score/score_edges.hpp"
#include "commdet/score/scorers.hpp"

namespace commdet {
namespace {

using V32 = std::int32_t;

/// Exhaustive maximum-weight matching over positive edges (small graphs).
double brute_force_best(const CommunityGraph<V32>& g, const std::vector<Score>& scores) {
  std::vector<std::pair<std::pair<V32, V32>, Score>> edges;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto i = static_cast<std::size_t>(e);
    if (scores[i] > 0) edges.push_back({{g.efirst[i], g.esecond[i]}, scores[i]});
  }
  std::vector<bool> used(static_cast<std::size_t>(g.nv), false);
  std::function<double(std::size_t)> rec = [&](std::size_t k) -> double {
    if (k == edges.size()) return 0.0;
    double best = rec(k + 1);  // skip edge k
    const auto [uv, s] = edges[k];
    if (!used[static_cast<std::size_t>(uv.first)] && !used[static_cast<std::size_t>(uv.second)]) {
      used[static_cast<std::size_t>(uv.first)] = used[static_cast<std::size_t>(uv.second)] = true;
      best = std::max(best, s + rec(k + 1));
      used[static_cast<std::size_t>(uv.first)] = used[static_cast<std::size_t>(uv.second)] = false;
    }
    return best;
  };
  return rec(0);
}

enum class Kind { kList, kSweep, kGreedy };

Matching<V32> run(Kind kind, const CommunityGraph<V32>& g, const std::vector<Score>& scores) {
  switch (kind) {
    case Kind::kList: return UnmatchedListMatcher<V32>{}.match(g, scores);
    case Kind::kSweep: return EdgeSweepMatcher<V32>{}.match(g, scores);
    case Kind::kGreedy: return SequentialGreedyMatcher<V32>{}.match(g, scores);
  }
  return {};
}

class MatcherTest : public ::testing::TestWithParam<Kind> {};

TEST_P(MatcherTest, PathGraphMatchingIsValidAndMaximal) {
  const auto g = build_community_graph(make_path<V32>(10));
  std::vector<Score> scores;
  score_edges(g, ModularityScorer{}, scores);
  const auto m = run(GetParam(), g, scores);
  EXPECT_TRUE(is_valid_matching(m));
  EXPECT_TRUE(is_maximal_matching(g, scores, m));
  EXPECT_GE(m.num_pairs, 3);  // a maximal matching on P10 has >= 3 edges
  EXPECT_LE(m.num_pairs, 5);
}

TEST_P(MatcherTest, StarGraphMatchesExactlyOnePair) {
  const auto g = build_community_graph(make_star<V32>(64));
  std::vector<Score> scores;
  score_edges(g, ModularityScorer{}, scores);
  const auto m = run(GetParam(), g, scores);
  EXPECT_TRUE(is_valid_matching(m));
  EXPECT_TRUE(is_maximal_matching(g, scores, m));
  EXPECT_EQ(m.num_pairs, 1);  // the hub can pair with only one leaf
}

TEST_P(MatcherTest, NoPositiveScoresMeansEmptyMatching) {
  const auto g = build_community_graph(make_path<V32>(6));
  std::vector<Score> scores(static_cast<std::size_t>(g.num_edges()), -1.0);
  const auto m = run(GetParam(), g, scores);
  EXPECT_TRUE(is_valid_matching(m));
  EXPECT_EQ(m.num_pairs, 0);
}

TEST_P(MatcherTest, RespectsScoreSignEdgeByEdge) {
  // Path 0-1-2-3 with only the middle edge positive.
  const auto g = build_community_graph(make_path<V32>(4));
  std::vector<Score> scores(static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto i = static_cast<std::size_t>(e);
    const auto lo = std::min(g.efirst[i], g.esecond[i]);
    scores[i] = (lo == 1) ? 1.0 : -1.0;
  }
  const auto m = run(GetParam(), g, scores);
  EXPECT_EQ(m.num_pairs, 1);
  EXPECT_EQ(m.mate[1], 2);
  EXPECT_EQ(m.mate[2], 1);
  EXPECT_EQ(m.mate[0], kNoVertex<V32>);
}

TEST_P(MatcherTest, WithinFactorTwoOfOptimumOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto g = build_community_graph(generate_erdos_renyi<V32>(12, 30, seed));
    std::vector<Score> scores;
    score_edges(g, ModularityScorer{}, scores);
    const auto m = run(GetParam(), g, scores);
    ASSERT_TRUE(is_valid_matching(m));
    ASSERT_TRUE(is_maximal_matching(g, scores, m));
    const double got = matching_weight(g, scores, m);
    const double best = brute_force_best(g, scores);
    EXPECT_GE(2.0 * got + 1e-12, best) << "seed " << seed;
  }
}

TEST_P(MatcherTest, LargeGraphMaximalityHolds) {
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 8;
  const auto g = build_community_graph(generate_rmat<V32>(p));
  std::vector<Score> scores;
  score_edges(g, ModularityScorer{}, scores);
  const auto m = run(GetParam(), g, scores);
  EXPECT_TRUE(is_valid_matching(m));
  EXPECT_TRUE(is_maximal_matching(g, scores, m));
  EXPECT_GT(m.num_pairs, 0);
}

INSTANTIATE_TEST_SUITE_P(AllMatchers, MatcherTest,
                         ::testing::Values(Kind::kList, Kind::kSweep, Kind::kGreedy),
                         [](const auto& info) {
                           switch (info.param) {
                             case Kind::kList: return "UnmatchedList";
                             case Kind::kSweep: return "EdgeSweep";
                             case Kind::kGreedy: return "SequentialGreedy";
                           }
                           return "Unknown";
                         });

TEST(Offer, TotalOrderIsAntisymmetric) {
  const auto a = make_offer<V32>(1.0, 0, 1);
  const auto b = make_offer<V32>(2.0, 2, 3);
  EXPECT_TRUE(b.beats(a));
  EXPECT_FALSE(a.beats(b));
  // Equal scores: the hashed endpoint tie-break is still antisymmetric.
  const auto c = make_offer<V32>(1.0, 0, 2);
  EXPECT_NE(a.beats(c), c.beats(a));
  // Identical offers beat neither way.
  EXPECT_FALSE(a.beats(a));
  // Invalid never beats valid.
  Offer<V32> none;
  EXPECT_TRUE(a.beats(none));
  EXPECT_FALSE(none.beats(a));
  EXPECT_FALSE(none.beats(none));
}

TEST(Offer, EqualScoreOrderIsTotalOverManyPairs) {
  // Every distinct pair must be strictly ordered against every other at
  // equal score (the matchers' progress proof needs a total order).
  std::vector<Offer<V32>> offers;
  for (V32 u = 0; u < 12; ++u)
    for (V32 v = u + 1; v < 12; ++v) offers.push_back(make_offer<V32>(1.0, u, v));
  for (std::size_t i = 0; i < offers.size(); ++i)
    for (std::size_t j = 0; j < offers.size(); ++j) {
      if (i == j) continue;
      EXPECT_NE(offers[i].beats(offers[j]), offers[j].beats(offers[i]));
    }
}

TEST(Offer, MakeOfferNormalizesEndpointOrder) {
  const auto a = make_offer<V32>(1.0, 5, 2);
  EXPECT_EQ(a.lo, 2);
  EXPECT_EQ(a.hi, 5);
}

TEST(UnmatchedList, SweepCountStaysSmallOnSocialGraphs) {
  // Paper Sec. IV-B: "Strictly this is not an O(|E|) algorithm, but the
  // number of passes is small enough in social network graphs that it
  // runs in effectively O(|E|) time."
  RmatParams p;
  p.scale = 13;
  p.edge_factor = 8;
  const auto g = build_community_graph(generate_rmat<V32>(p));
  std::vector<Score> scores;
  score_edges(g, ModularityScorer{}, scores);
  const auto m = UnmatchedListMatcher<V32>{}.match(g, scores);
  EXPECT_LE(m.sweeps, 40) << "pass count should stay logarithmic-ish";

  PlantedPartitionParams sp;
  sp.num_vertices = 1 << 13;
  sp.num_blocks = 128;
  const auto g2 = build_community_graph(generate_planted_partition<V32>(sp));
  score_edges(g2, ModularityScorer{}, scores);
  const auto m2 = UnmatchedListMatcher<V32>{}.match(g2, scores);
  EXPECT_LE(m2.sweeps, 40);
}

/// The unmatched-list matcher with a full bucket rescan for every listed
/// vertex in every sweep, run serially: the pass-1 formulation before
/// still-free proposals were kept.  Pass 2 and the compaction visit the
/// list in order, as the library's passes do on one thread.
Matching<V32> full_rescan_reference(const CommunityGraph<V32>& g,
                                    const std::vector<Score>& scores) {
  const auto nv = static_cast<std::size_t>(g.nv);
  Matching<V32> result;
  result.mate.assign(nv, kNoVertex<V32>);
  auto& mate = result.mate;
  std::vector<V32> proposal(nv, kNoVertex<V32>);
  std::vector<Score> proposal_score(nv, 0.0);
  std::vector<V32> unmatched(nv);
  std::iota(unmatched.begin(), unmatched.end(), V32{0});
  while (!unmatched.empty()) {
    ++result.sweeps;
    for (const V32 u : unmatched) {
      const auto [bb, be] = g.bucket(u);
      Offer<V32> best;
      V32 best_target = kNoVertex<V32>;
      for (EdgeId e = bb; e < be; ++e) {
        const auto i = static_cast<std::size_t>(e);
        const V32 v = g.esecond[i];
        if (scores[i] <= 0.0 || mate[static_cast<std::size_t>(v)] != kNoVertex<V32>) continue;
        const auto offer = make_offer(scores[i], u, v);
        if (offer.beats(best)) {
          best = offer;
          best_target = v;
        }
      }
      proposal[static_cast<std::size_t>(u)] = best_target;
      proposal_score[static_cast<std::size_t>(u)] = best.score;
    }
    for (const V32 u : unmatched) {
      const V32 v = proposal[static_cast<std::size_t>(u)];
      if (v == kNoVertex<V32>) continue;
      const auto mine = make_offer(proposal_score[static_cast<std::size_t>(u)], u, v);
      const V32 vs_target = proposal[static_cast<std::size_t>(v)];
      if (vs_target != kNoVertex<V32> &&
          make_offer(proposal_score[static_cast<std::size_t>(v)], v, vs_target).beats(mine))
        continue;
      if (mate[static_cast<std::size_t>(u)] == kNoVertex<V32> &&
          mate[static_cast<std::size_t>(v)] == kNoVertex<V32>) {
        mate[static_cast<std::size_t>(u)] = v;
        mate[static_cast<std::size_t>(v)] = u;
        ++result.num_pairs;
      }
    }
    std::erase_if(unmatched, [&](V32 u) {
      return mate[static_cast<std::size_t>(u)] != kNoVertex<V32> ||
             proposal[static_cast<std::size_t>(u)] == kNoVertex<V32>;
    });
  }
  return result;
}

TEST(UnmatchedList, KeptProposalsMatchFullRescanReference) {
  // Keeping a proposal whose target is still free must not change a
  // single pair or the sweep count on one thread; on four threads the
  // claim order varies, so only validity and maximality are fixed.
  RmatParams rp;
  rp.scale = 14;
  rp.edge_factor = 8;
  PlantedPartitionParams sp;
  sp.num_vertices = 1 << 14;
  sp.num_blocks = 256;
  const std::vector<std::pair<const char*, CommunityGraph<V32>>> graphs = {
      {"rmat14", build_community_graph(generate_rmat<V32>(rp))},
      {"sbm14", build_community_graph(generate_planted_partition<V32>(sp))},
      {"star", build_community_graph(make_star<V32>(2000))},
      {"path", build_community_graph(make_path<V32>(2001))},
  };
  const int saved_threads = omp_get_max_threads();
  for (const auto& [name, g] : graphs) {
    SCOPED_TRACE(name);
    std::vector<Score> scores;
    score_edges(g, ModularityScorer{}, scores);
    const auto reference = full_rescan_reference(g, scores);
    ASSERT_GT(reference.num_pairs, 0);

    omp_set_num_threads(1);
    const auto serial = UnmatchedListMatcher<V32>{}.match(g, scores);
    EXPECT_EQ(serial.mate, reference.mate);
    EXPECT_EQ(serial.sweeps, reference.sweeps);
    EXPECT_EQ(serial.num_pairs, reference.num_pairs);

    omp_set_num_threads(4);
    const auto threaded = UnmatchedListMatcher<V32>{}.match(g, scores);
    EXPECT_TRUE(is_valid_matching(threaded));
    EXPECT_TRUE(is_maximal_matching(g, scores, threaded));
  }
  omp_set_num_threads(saved_threads);
}

TEST(UnmatchedList, PrunedScanMatchesFullRescanOnCoarseLevels) {
  // Coarse levels have weighted edges and long buckets, where skipping
  // candidates that score below the best offer so far prunes the most.
  // At every level the one-thread matcher must equal the full rescan.
  RmatParams rp;
  rp.scale = 14;
  rp.edge_factor = 8;
  PlantedPartitionParams sp;
  sp.num_vertices = 1 << 14;
  sp.num_blocks = 256;
  const std::vector<std::pair<const char*, CommunityGraph<V32>>> graphs = {
      {"rmat14", build_community_graph(generate_rmat<V32>(rp))},
      {"sbm14", build_community_graph(generate_planted_partition<V32>(sp))},
  };
  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  for (const auto& [name, input] : graphs) {
    SCOPED_TRACE(name);
    auto g = input;
    int level = 1;
    for (; level <= 8; ++level) {
      SCOPED_TRACE(testing::Message() << "level " << level);
      std::vector<Score> scores;
      score_edges(g, ModularityScorer{}, scores);
      const auto reference = full_rescan_reference(g, scores);
      const auto pruned = UnmatchedListMatcher<V32>{}.match(g, scores);
      EXPECT_EQ(pruned.mate, reference.mate);
      EXPECT_EQ(pruned.sweeps, reference.sweeps);
      EXPECT_EQ(pruned.num_pairs, reference.num_pairs);
      if (pruned.num_pairs == 0) break;
      g = BucketSortContractor<V32>{}.contract(g, pruned).graph;
    }
    EXPECT_GT(level, 3) << "too few levels to reach weighted, long buckets";
  }
  omp_set_num_threads(saved_threads);
}

TEST(SequentialGreedy, DeterministicallyPicksHighestScores) {
  // Path 0-1-2-3-4 with weights making edges (1,2) and (3,4) the greedy picks.
  EdgeList<V32> el;
  el.num_vertices = 5;
  el.add(0, 1, 1);
  el.add(1, 2, 10);
  el.add(2, 3, 5);
  el.add(3, 4, 7);
  const auto g = build_community_graph(el);
  std::vector<Score> scores;
  score_edges(g, HeavyEdgeScorer{}, scores);
  const auto m = SequentialGreedyMatcher<V32>{}.match(g, scores);
  EXPECT_EQ(m.num_pairs, 2);
  EXPECT_EQ(m.mate[1], 2);
  EXPECT_EQ(m.mate[3], 4);
  EXPECT_EQ(m.mate[0], kNoVertex<V32>);
}

}  // namespace
}  // namespace commdet
