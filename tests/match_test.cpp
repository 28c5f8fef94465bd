#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
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
#include "commdet/obs/metrics.hpp"
#include "commdet/score/score_edges.hpp"
#include "commdet/score/scorers.hpp"
#include "commdet/util/rng.hpp"

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

/// A bare edge range (no buckets) for driving EdgeSweepOffers directly.
struct TestEdges {
  std::vector<V32> efirst;
  std::vector<V32> esecond;
  std::vector<Weight> eweight;
  [[nodiscard]] EdgeId num_edges() const noexcept { return static_cast<EdgeId>(efirst.size()); }
  void add(V32 a, V32 b) {
    efirst.push_back(a);
    esecond.push_back(b);
    eweight.push_back(1);
  }
};

bool live_bit(const std::vector<std::uint64_t>& live, std::size_t i) {
  return ((live[i / 64] >> (i % 64)) & 1) != 0;
}

/// One serial edge-sweep round: the edges that bid under `mate`, and the
/// pairs of mutual Offer::beats maxima matched into `mate`.
std::vector<bool> serial_sweep(const TestEdges& edges, const std::vector<Score>& scores,
                               std::vector<V32>& mate) {
  const auto ne = static_cast<std::size_t>(edges.num_edges());
  std::vector<bool> bid(ne, false);
  std::vector<Offer<V32>> best(mate.size());
  std::vector<V32> partner(mate.size(), kNoVertex<V32>);
  for (std::size_t i = 0; i < ne; ++i) {
    const V32 a = edges.efirst[i];
    const V32 b = edges.esecond[i];
    if (scores[i] <= 0.0 || mate[static_cast<std::size_t>(a)] != kNoVertex<V32> ||
        mate[static_cast<std::size_t>(b)] != kNoVertex<V32>)
      continue;
    bid[i] = true;
    const auto offer = make_offer(scores[i], a, b);
    for (const auto& [at, other] : {std::pair{a, b}, std::pair{b, a}}) {
      if (offer.beats(best[static_cast<std::size_t>(at)])) {
        best[static_cast<std::size_t>(at)] = offer;
        partner[static_cast<std::size_t>(at)] = other;
      }
    }
  }
  for (std::size_t u = 0; u < mate.size(); ++u) {
    const V32 p = partner[u];
    if (p != kNoVertex<V32> && partner[static_cast<std::size_t>(p)] == static_cast<V32>(u))
      mate[u] = p;
  }
  return bid;
}

TEST(EdgeSweepOffers, LiveBitsAreTheBiddingEdges) {
  // Sizes around the 64-edge word (tail masking) and one of many words;
  // endpoints and scores drawn so that some edges never bid, many tie,
  // and matching takes several sweeps.
  const int saved_threads = omp_get_max_threads();
  for (const EdgeId ne : {0, 1, 63, 64, 65, 10007}) {
    const V32 nv = static_cast<V32>(std::max<EdgeId>(2, ne / 4 + 2));
    Xoshiro256ss rng(static_cast<std::uint64_t>(ne) + 1);
    TestEdges edges;
    std::vector<Score> scores;
    for (EdgeId e = 0; e < ne; ++e) {
      const auto a = static_cast<V32>(rng() % static_cast<std::uint64_t>(nv));
      auto b = static_cast<V32>(rng() % static_cast<std::uint64_t>(nv - 1));
      if (b >= a) ++b;
      edges.add(a, b);
      static constexpr Score kScores[] = {-1.0, 0.0, 0.5, 1.0, 1.0, 2.0};
      scores.push_back(kScores[rng() % 6]);
    }
    for (const int threads : {1, 3, 4}) {
      SCOPED_TRACE(testing::Message() << "ne " << ne << ", " << threads << " threads");
      omp_set_num_threads(threads);
      EdgeSweepOffers<V32> offers(nv);
      std::vector<V32> mate(static_cast<std::size_t>(nv), kNoVertex<V32>);
      std::vector<V32> reference_mate = mate;
      std::vector<std::uint64_t> live;
      fill_live_edges(live, ne);
      ASSERT_EQ(static_cast<EdgeId>(live.size()), (ne + 63) / 64);
      std::int64_t was_live = ne;
      int sweep = 1;
      for (;; ++sweep) {
        ASSERT_LE(sweep, 64) << "no progress";
        const auto expected = serial_sweep(edges, scores, reference_mate);
        const auto s = offers.bid(edges, [&](std::size_t i) { return scores[i]; },
                                  std::as_const(mate), live);
        std::int64_t bidding = 0;
        std::vector<bool> slot_bid(static_cast<std::size_t>(nv), false);
        for (std::size_t i = 0; i < static_cast<std::size_t>(ne); ++i) {
          ASSERT_EQ(live_bit(live, i), expected[i]) << "sweep " << sweep << ", edge " << i;
          if (!expected[i]) continue;
          ++bidding;
          slot_bid[static_cast<std::size_t>(edges.efirst[i])] = true;
          slot_bid[static_cast<std::size_t>(edges.esecond[i])] = true;
        }
        for (std::size_t w = static_cast<std::size_t>(ne) / 64; w < live.size(); ++w)
          EXPECT_EQ(live[w] >> (ne % 64), 0u) << "bits past the range";
        EXPECT_EQ(s.visited, was_live);
        EXPECT_EQ(s.bids, bidding);
        // Every slot's first bid locks; no bid locks more than both ends.
        EXPECT_GE(s.locks, std::count(slot_bid.begin(), slot_bid.end(), true));
        EXPECT_LE(s.locks, 2 * s.bids);
        was_live = bidding;
        if (s.bids == 0) break;
        (void)offers.reconcile(mate);
        ASSERT_EQ(mate, reference_mate) << "sweep " << sweep;
      }
      if (ne > 64) {
        EXPECT_GE(sweep, 4) << "too few sweeps for bits to die across sweeps";
      }
    }
  }
  omp_set_num_threads(saved_threads);
}

TEST(EdgeSweepOffers, PreCheckKeepsTieOrder) {
  // Every leaf offers the hub the same score, so the pre-check never
  // drops a bid and the hub's slot is decided by Offer::beats alone.  A
  // second pass mixes in lower scores, which the pre-check may drop.
  const int saved_threads = omp_get_max_threads();
  constexpr V32 kLeaves = 4000;
  TestEdges star;
  for (V32 leaf = 1; leaf <= kLeaves; ++leaf) {
    if (leaf % 2 == 0) star.add(0, leaf);
    else star.add(leaf, 0);
  }
  for (const bool mixed : {false, true}) {
    std::vector<Score> scores(static_cast<std::size_t>(kLeaves), 1.0);
    if (mixed)
      for (std::size_t i = 0; i < scores.size(); i += 3) scores[i] = 0.5;
    Offer<V32> best;
    V32 winner = kNoVertex<V32>;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      const auto offer = make_offer(scores[i], star.efirst[i], star.esecond[i]);
      if (offer.beats(best)) {
        best = offer;
        winner = best.hi;
      }
    }
    for (const int threads : {1, 3, 4}) {
      SCOPED_TRACE(testing::Message() << (mixed ? "mixed" : "equal") << " scores, "
                                      << threads << " threads");
      omp_set_num_threads(threads);
      EdgeSweepOffers<V32> offers(kLeaves + 1);
      std::vector<V32> mate(static_cast<std::size_t>(kLeaves) + 1, kNoVertex<V32>);
      std::vector<std::uint64_t> live;
      fill_live_edges(live, star.num_edges());
      const auto s = offers.bid(star, [&](std::size_t i) { return scores[i]; },
                                std::as_const(mate), live);
      EXPECT_EQ(s.bids, kLeaves);
      // Each leaf's slot takes its one offer; equal scores at the hub lock.
      EXPECT_GE(s.locks, kLeaves + 1);
      if (!mixed) {
        EXPECT_EQ(s.locks, 2 * kLeaves);
      }
      EXPECT_EQ(offers.reconcile(mate), 1);
      EXPECT_EQ(mate[0], winner);
    }
  }
  omp_set_num_threads(saved_threads);
}

TEST(EdgeSweepOffers, CountersReportSweepWork) {
  // The flat matcher re-bids every edge each sweep: it visits sweeps x E.
  RmatParams p;
  p.scale = 11;
  p.edge_factor = 8;
  const auto g = build_community_graph(generate_rmat<V32>(p));
  std::vector<Score> scores;
  score_edges(g, ModularityScorer{}, scores);
  obs::MetricsRegistry reg;
  Matching<V32> m;
  {
    obs::MetricsSession session(reg);
    m = EdgeSweepMatcher<V32>{}.match(g, scores);
  }
  EXPECT_EQ(m.mate, EdgeSweepMatcher<V32>{}.match(g, scores).mate);
  const auto visited = reg.counter("match.edges_visited").value();
  const auto bid = reg.counter("match.edges_bid").value();
  const auto locks = reg.counter("match.bid_locks").value();
  EXPECT_EQ(visited, m.sweeps * g.num_edges());
  EXPECT_GT(bid, 0);
  EXPECT_LT(bid, visited);
  EXPECT_GT(locks, 0);
  EXPECT_LE(locks, 2 * bid);
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
