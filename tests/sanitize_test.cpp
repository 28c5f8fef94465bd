#include <gtest/gtest.h>
#include <omp.h>

#include <cstdint>
#include <limits>

#include "commdet/core/detect.hpp"
#include "commdet/gen/simple_graphs.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/graph/edge_list.hpp"
#include "commdet/robust/sanitize.hpp"
#include "test_support.hpp"

namespace commdet {
namespace {

using V32 = std::int32_t;

EdgeList<V32> triangle() {
  EdgeList<V32> el;
  el.num_vertices = 3;
  el.add(0, 1);
  el.add(1, 2);
  el.add(0, 2);
  return el;
}

TEST(Sanitize, CleanInputIsUntouched) {
  auto el = triangle();
  const auto before = el.edges;
  const auto result = sanitize_edges(el);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result.value().clean());
  EXPECT_EQ(result->scanned, 3);
  EXPECT_EQ(el.edges.size(), before.size());
}

TEST(Sanitize, RepairDropsBadEndpointsAndWeights) {
  auto el = triangle();
  el.add(0, 7);   // endpoint beyond num_vertices
  el.add(-1, 1);  // negative endpoint
  el.add(1, 2, 0);   // zero weight
  el.add(1, 2, -4);  // negative weight
  const auto result = sanitize_edges(el);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->bad_endpoints, 2);
  EXPECT_EQ(result->bad_weights, 2);
  EXPECT_EQ(result->removed, 4);
  EXPECT_EQ(el.edges.size(), 3u);  // the clean triangle survives, in order
  EXPECT_EQ(el.edges[0].u, 0);
  EXPECT_EQ(el.edges[0].v, 1);
}

TEST(Sanitize, SelfLoopsAllowedByDefault) {
  auto el = triangle();
  el.add(1, 1, 5);
  const auto result = sanitize_edges(el);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->self_loops, 1);
  EXPECT_EQ(result->removed, 0);
  EXPECT_EQ(el.edges.size(), 4u);
}

TEST(Sanitize, SelfLoopsDroppedWhenDisallowed) {
  auto el = triangle();
  el.add(1, 1, 5);
  SanitizeOptions opts;
  opts.allow_self_loops = false;
  const auto result = sanitize_edges(el, opts);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->self_loops, 1);
  EXPECT_EQ(result->removed, 1);
  EXPECT_EQ(el.edges.size(), 3u);
}

TEST(Sanitize, DuplicatesFoldedWhenDisallowed) {
  EdgeList<V32> el;
  el.num_vertices = 3;
  el.add(0, 1, 2);
  el.add(1, 0, 3);  // same edge, reversed endpoints
  el.add(1, 2, 1);
  SanitizeOptions opts;
  opts.allow_duplicates = false;
  const auto result = sanitize_edges(el, opts);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->duplicates, 1);
  EXPECT_EQ(result->removed, 1);
  ASSERT_EQ(el.edges.size(), 2u);
  // Folded edge keeps canonical order and the accumulated weight.
  EXPECT_EQ(el.edges[0].u, 0);
  EXPECT_EQ(el.edges[0].v, 1);
  EXPECT_EQ(el.edges[0].w, 5);
}

TEST(Sanitize, RejectPolicyFailsWithSummary) {
  auto el = triangle();
  el.add(0, 99);
  SanitizeOptions opts;
  opts.policy = SanitizePolicy::kReject;
  const auto result = sanitize_edges(el, opts);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().phase, Phase::kSanitize);
  EXPECT_NE(result.error().detail.find("1 bad endpoints"), std::string::npos);
  EXPECT_EQ(el.edges.size(), 4u);  // reject never mutates the input
}

TEST(Sanitize, RejectPolicyPassesCleanInput) {
  auto el = triangle();
  SanitizeOptions opts;
  opts.policy = SanitizePolicy::kReject;
  const auto result = sanitize_edges(el, opts);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->clean());
}

TEST(Sanitize, WeightSumOverflowIsUnrepairable) {
  EdgeList<V32> el;
  el.num_vertices = 4;
  const Weight huge = std::int64_t{1} << 61;
  el.add(0, 1, huge);
  el.add(1, 2, huge);
  el.add(2, 3, huge);  // 2 * 3 * 2^61 > 2^62: scorers' 2W accumulator overflows
  const auto result = sanitize_edges(el);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::kBadWeight);
  EXPECT_NE(result.error().detail.find("unrepairable"), std::string::npos);
}

TEST(Sanitize, DetectFacadeRepairsRawEdgeList) {
  // The EdgeList entry point sanitizes by default: bad edges are dropped
  // instead of build_community_graph throwing.
  auto el = make_caveman<V32>(4, 5);
  el.add(0, -3);      // would make the builder throw
  el.add(1, 2, -1);   // likewise
  const auto clustering = detect_communities(el);
  EXPECT_GT(clustering.num_communities, 0);
  EXPECT_GT(clustering.final_modularity, 0.3);
}

TEST(Sanitize, DetectFacadeRejectsWhenConfigured) {
  auto el = make_caveman<V32>(4, 5);
  el.add(0, -3);
  DetectOptions opts;
  opts.sanitize.policy = SanitizePolicy::kReject;
  EXPECT_THROW((void)detect_communities(el, opts), CommdetError);
}

TEST(Sanitize, DetectFacadeSanitizationCanBeDisabled) {
  auto el = make_caveman<V32>(4, 5);
  el.add(0, -3);
  DetectOptions opts;
  opts.sanitize_input = false;
  // Without the sweep the builder sees the bad endpoint and throws its
  // pre-existing invalid_argument.
  EXPECT_THROW((void)detect_communities(el, opts), std::invalid_argument);

  // A valid list with a duplicate edge and a self-loop, which a sweep
  // would rewrite: unsanitized, the facade builds from the list as given
  // and leaves it as it was.
  auto good = make_caveman<V32>(4, 5);
  good.add(1, 0);
  good.add(3, 3);
  const auto before = good.edges;
  ThreadCountGuard guard;
  omp_set_num_threads(1);  // the default matcher is deterministic on one thread
  const auto facade = detect_communities(good, opts);
  const auto built = detect_communities(build_community_graph(good), opts);
  EXPECT_EQ(facade.community, built.community);
  EXPECT_EQ(good.edges, before);
}

}  // namespace
}  // namespace commdet
