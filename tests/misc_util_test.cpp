// Coverage for the small utility surfaces not exercised elsewhere:
// graph statistics, timers, atomic helpers, and enum formatting.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "commdet/core/detect.hpp"
#include "commdet/core/options.hpp"
#include "commdet/gen/simple_graphs.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/graph/stats.hpp"
#include "commdet/util/atomics.hpp"
#include "commdet/util/timer.hpp"

namespace commdet {
namespace {

TEST(GraphStats, StarGraphNumbers) {
  const auto s = graph_stats(build_community_graph(make_star<std::int32_t>(10)));
  EXPECT_EQ(s.num_vertices, 10);
  EXPECT_EQ(s.num_edges, 9);
  EXPECT_EQ(s.min_degree, 1);
  EXPECT_EQ(s.max_degree, 9);
  EXPECT_DOUBLE_EQ(s.mean_degree, 1.8);
  EXPECT_EQ(s.isolated_vertices, 0);
  EXPECT_EQ(s.self_loop_weight, 0);
}

TEST(GraphStats, IsolatedVerticesAndSelfLoops) {
  EdgeList<std::int32_t> el;
  el.num_vertices = 5;
  el.add(0, 1);
  el.add(2, 2, 7);
  const auto s = graph_stats(build_community_graph(el));
  EXPECT_EQ(s.isolated_vertices, 3);  // 2 (self-loop only), 3, 4
  EXPECT_EQ(s.self_loop_weight, 7);
  EXPECT_EQ(s.total_weight, 8);
  EXPECT_EQ(s.min_degree, 0);
}

TEST(Timer, MeasuresElapsedTimeMonotonically) {
  WallTimer t;
  const double a = t.seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GT(b, a);
  EXPECT_GE(b, 0.009);
  t.reset();
  EXPECT_LT(t.seconds(), b);
}

TEST(Timer, ScopedTimerAccumulates) {
  double acc = 0.0;
  {
    ScopedTimer s1(acc);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double first = acc;
  EXPECT_GE(first, 0.004);
  {
    ScopedTimer s2(acc);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(acc, first);  // accumulates, not overwrites
}

TEST(Atomics, LoadStoreCasRoundTrip) {
  std::int64_t word = 5;
  EXPECT_EQ(atomic_load(word), 5);
  atomic_store(word, std::int64_t{9});
  EXPECT_EQ(atomic_load(word), 9);
  std::int64_t expected = 9;
  EXPECT_TRUE(atomic_cas(word, expected, std::int64_t{12}));
  EXPECT_EQ(word, 12);
  expected = 9;  // stale
  EXPECT_FALSE(atomic_cas(word, expected, std::int64_t{1}));
  EXPECT_EQ(expected, 12);  // CAS reports the current value
}

TEST(Enums, AllToStringValuesAreDistinct) {
  EXPECT_EQ(to_string(MatcherKind::kUnmatchedList), "unmatched-list");
  EXPECT_EQ(to_string(MatcherKind::kEdgeSweep), "edge-sweep");
  EXPECT_EQ(to_string(MatcherKind::kSequentialGreedy), "sequential-greedy");
  EXPECT_EQ(to_string(TerminationReason::kLocalMaximum), "local-maximum");
  EXPECT_EQ(to_string(TerminationReason::kCoverage), "coverage");
  EXPECT_EQ(to_string(TerminationReason::kNoMatches), "no-matches");
  EXPECT_EQ(to_string(TerminationReason::kMinCommunities), "min-communities");
  EXPECT_EQ(to_string(TerminationReason::kLevelCap), "level-cap");
  EXPECT_EQ(to_string(ScorerKind::kModularity), "modularity");
  EXPECT_EQ(to_string(ScorerKind::kConductance), "conductance");
  EXPECT_EQ(to_string(ScorerKind::kHeavyEdge), "heavy-edge");
  EXPECT_EQ(to_string(ScorerKind::kResolutionModularity), "resolution-modularity");
}

}  // namespace
}  // namespace commdet
