#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "commdet/gen/planted_partition.hpp"
#include "commdet/gen/rmat.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/graph/stats.hpp"
#include "commdet/graph/validate.hpp"
#include "commdet/util/rng.hpp"
#include "test_support.hpp"

namespace commdet {
namespace {

template <typename V>
class BuilderTypedTest : public ::testing::Test {};

using VertexTypes = ::testing::Types<std::int32_t, std::int64_t>;
TYPED_TEST_SUITE(BuilderTypedTest, VertexTypes);

TYPED_TEST(BuilderTypedTest, HashedOrderRespectsParityRule) {
  using V = TypeParam;
  // Same parity -> (min, max).
  EXPECT_EQ(hashed_edge_order<V>(2, 4), (std::pair<V, V>{2, 4}));
  EXPECT_EQ(hashed_edge_order<V>(4, 2), (std::pair<V, V>{2, 4}));
  EXPECT_EQ(hashed_edge_order<V>(3, 7), (std::pair<V, V>{3, 7}));
  // Mixed parity -> (max, min).
  EXPECT_EQ(hashed_edge_order<V>(2, 5), (std::pair<V, V>{5, 2}));
  EXPECT_EQ(hashed_edge_order<V>(5, 2), (std::pair<V, V>{5, 2}));
}

TYPED_TEST(BuilderTypedTest, TriangleBuildsValidGraph) {
  using V = TypeParam;
  EdgeList<V> el;
  el.num_vertices = 3;
  el.add(0, 1);
  el.add(1, 2);
  el.add(0, 2);
  const auto g = build_community_graph(el);
  EXPECT_TRUE(validate_graph(g).ok()) << validate_graph(g).error;
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.total_weight, 3);
  // Triangle: every vertex has volume 2 (two unit edges).
  for (int v = 0; v < 3; ++v) EXPECT_EQ(g.volume[static_cast<std::size_t>(v)], 2);
}

TYPED_TEST(BuilderTypedTest, AccumulatesRepeatedEdges) {
  using V = TypeParam;
  EdgeList<V> el;
  el.num_vertices = 2;
  el.add(0, 1, 2);
  el.add(1, 0, 3);
  el.add(0, 1, 5);
  const auto g = build_community_graph(el);
  ASSERT_TRUE(validate_graph(g).ok()) << validate_graph(g).error;
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.eweight[0], 10);
  EXPECT_EQ(g.total_weight, 10);
}

TYPED_TEST(BuilderTypedTest, FoldsSelfLoopsIntoSelfWeight) {
  using V = TypeParam;
  EdgeList<V> el;
  el.num_vertices = 3;
  el.add(0, 0, 4);
  el.add(0, 0, 1);
  el.add(1, 2, 7);
  const auto g = build_community_graph(el);
  ASSERT_TRUE(validate_graph(g).ok()) << validate_graph(g).error;
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.self_weight[0], 5);
  EXPECT_EQ(g.volume[0], 10);  // 2 * self
  EXPECT_EQ(g.total_weight, 12);
}

/// The message build_community_graph rejects `el` with ("" if it builds).
template <typename V>
std::string build_error(const EdgeList<V>& el) {
  try {
    (void)build_community_graph(el);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TYPED_TEST(BuilderTypedTest, RejectsBadInput) {
  using V = TypeParam;
  EdgeList<V> el;
  el.num_vertices = 2;
  el.add(0, 2);  // out of range
  EXPECT_THROW((void)build_community_graph(el), std::invalid_argument);

  EdgeList<V> el2;
  el2.num_vertices = 2;
  el2.edges.push_back({0, 1, 0});  // non-positive weight
  EXPECT_THROW((void)build_community_graph(el2), std::invalid_argument);

  EdgeList<V> el3;
  el3.num_vertices = 2;
  el3.edges.push_back({V{-1}, 1, 1});
  EXPECT_THROW((void)build_community_graph(el3), std::invalid_argument);

  const std::string endpoint = "edge endpoint out of range";
  const std::string weight = "edge weight must be positive";
  EdgeList<V> loop;
  loop.num_vertices = 2;
  loop.add(0, 1);
  loop.edges.push_back({1, 1, -3});  // a self-loop is checked too
  EXPECT_EQ(build_error(loop), weight);

  // A valid prefix long enough to give every thread a chunk; the bad
  // endpoint sits in the last one, the bad weight in the first.
  EdgeList<V> big;
  big.num_vertices = 1000;
  for (V i = 0; i < 100000; ++i) big.add(i % 1000, (i * 7 + 1) % 1000);
  big.add(999, 1000);
  EXPECT_EQ(build_error(big), endpoint);
  big.edges.front().w = 0;
  EXPECT_EQ(build_error(big), endpoint) << "the endpoint error wins";
  big.edges.back().v = 0;
  EXPECT_EQ(build_error(big), weight);
}

/// Serial reference build: self-loops fold into self weights, every
/// other edge is hashed into storage order, the triples are sorted by
/// (first, second) and equal runs merged, and the buckets are the
/// vertex-ordered runs of first vertices.
template <typename V>
CommunityGraph<V> reference_build(const EdgeList<V>& in) {
  const auto n = static_cast<std::size_t>(in.num_vertices);
  CommunityGraph<V> g;
  g.nv = in.num_vertices;
  g.self_weight.assign(n, 0);
  g.volume.assign(n, 0);
  std::vector<std::tuple<V, V, Weight>> triples;
  for (const auto& e : in.edges) {
    g.total_weight += e.w;
    g.volume[static_cast<std::size_t>(e.u)] += e.w;
    g.volume[static_cast<std::size_t>(e.v)] += e.w;
    if (e.u == e.v) {
      g.self_weight[static_cast<std::size_t>(e.u)] += e.w;
      continue;
    }
    const auto [f, s] = hashed_edge_order(e.u, e.v);
    triples.emplace_back(f, s, e.w);
  }
  std::sort(triples.begin(), triples.end());
  std::vector<EdgeId> count(n, 0);
  for (const auto& [f, s, w] : triples) {
    if (!g.efirst.empty() && g.efirst.back() == f && g.esecond.back() == s) {
      g.eweight.back() += w;
      continue;
    }
    g.efirst.push_back(f);
    g.esecond.push_back(s);
    g.eweight.push_back(w);
    ++count[static_cast<std::size_t>(f)];
  }
  EdgeId at = 0;
  for (std::size_t v = 0; v < n; ++v) {
    g.bucket_begin.push_back(at);
    at += count[v];
    g.bucket_end.push_back(at);
  }
  return g;
}

/// build_community_graph equals the reference array for array, at 1
/// thread and at 4.
template <typename V>
void expect_matches_reference(const EdgeList<V>& in) {
  const auto want = reference_build(in);
  ThreadCountGuard guard;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    omp_set_num_threads(threads);
    const auto got = build_community_graph(in);
    ASSERT_TRUE(validate_graph(got).ok()) << validate_graph(got).error;
    EXPECT_EQ(got.nv, want.nv);
    EXPECT_EQ(got.total_weight, want.total_weight);
    EXPECT_EQ(got.bucket_begin, want.bucket_begin);
    EXPECT_EQ(got.bucket_end, want.bucket_end);
    EXPECT_EQ(got.self_weight, want.self_weight);
    EXPECT_EQ(got.volume, want.volume);
    EXPECT_EQ(got.efirst, want.efirst);
    EXPECT_EQ(got.esecond, want.esecond);
    EXPECT_EQ(got.eweight, want.eweight);
  }
}

TYPED_TEST(BuilderTypedTest, MatchesSerialReferenceOnGeneratedGraphs) {
  using V = TypeParam;
  RmatParams rmat;
  rmat.scale = 14;
  rmat.edge_factor = 8;
  expect_matches_reference(generate_rmat<V>(rmat));
  PlantedPartitionParams sbm;
  sbm.num_vertices = std::int64_t{1} << 14;
  expect_matches_reference(generate_planted_partition<V>(sbm));
}

TYPED_TEST(BuilderTypedTest, MatchesSerialReferenceOnDuplicateHeavyInput) {
  using V = TypeParam;
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  const auto base = generate_rmat<V>(p);
  EdgeList<V> el;
  el.num_vertices = base.num_vertices;
  for (int k = 0; k < 6; ++k)
    for (const auto& e : base.edges)
      el.edges.push_back(k % 2 == 0 ? RawEdge<V>{e.u, e.v, 1 + k} : RawEdge<V>{e.v, e.u, 1 + k});
  std::shuffle(el.edges.begin(), el.edges.end(), std::mt19937_64(7));
  expect_matches_reference(el);
}

TYPED_TEST(BuilderTypedTest, MatchesSerialReferenceOnSelfLoopHeavyInput) {
  using V = TypeParam;
  std::mt19937_64 rng(11);
  EdgeList<V> mostly;
  mostly.num_vertices = 1000;
  EdgeList<V> all;
  all.num_vertices = 1000;
  for (int i = 0; i < 20000; ++i) {
    const auto u = static_cast<V>(rng() % 1000);
    const auto v = static_cast<V>(rng() % 1000);
    const auto w = static_cast<Weight>(1 + rng() % 4);
    mostly.add(u, i % 5 == 0 ? v : u, w);
    all.add(u, u, w);
  }
  expect_matches_reference(mostly);
  expect_matches_reference(all);
}

TYPED_TEST(BuilderTypedTest, MatchesSerialReferenceOnDegenerateInput) {
  using V = TypeParam;
  EdgeList<V> isolated;  // most vertices have no edge
  isolated.num_vertices = 10000;
  for (V v = 0; v < 100; ++v) isolated.add(v, (v * 13 + 5) % 100, 2);
  isolated.add(9999, 5000);
  expect_matches_reference(isolated);

  EdgeList<V> one;
  one.num_vertices = 1;
  expect_matches_reference(one);
  one.add(0, 0, 3);
  one.add(0, 0, 4);
  expect_matches_reference(one);

  EdgeList<V> empty;
  expect_matches_reference(empty);
  empty.num_vertices = 5;
  expect_matches_reference(empty);
}

TYPED_TEST(BuilderTypedTest, EmptyGraph) {
  using V = TypeParam;
  EdgeList<V> el;
  el.num_vertices = 5;
  const auto g = build_community_graph(el);
  ASSERT_TRUE(validate_graph(g).ok());
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.total_weight, 0);
}

TYPED_TEST(BuilderTypedTest, MemoryFootprintMatchesPaperBudget) {
  using V = TypeParam;
  EdgeList<V> el;
  el.num_vertices = 100;
  for (V v = 0; v + 1 < 100; ++v) el.add(v, v + 1);
  const auto g = build_community_graph(el);
  // Paper budget: 3|V| + 3|E| words (+ our extra |V| volume array).
  const std::size_t expected =
      100 * (2 * sizeof(EdgeId) + 2 * sizeof(Weight)) + 99 * (2 * sizeof(V) + sizeof(Weight));
  EXPECT_EQ(g.memory_bytes(), expected);
  // The 32-bit instantiation is strictly smaller per edge.
  if constexpr (std::is_same_v<V, std::int32_t>) {
    EXPECT_LT(g.memory_bytes(), 100 * 32 + 99 * 24);
  }
}

// Property sweep: random multigraphs of varying density build into valid
// graphs whose totals match a serial reference.
class BuilderPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::int32_t, std::int64_t, std::uint64_t>> {};

TEST_P(BuilderPropertyTest, RandomMultigraphInvariants) {
  const auto [nv, ne, seed] = GetParam();
  CounterRng rng(seed);
  EdgeList<std::int32_t> el;
  el.num_vertices = nv;
  Weight expected_total = 0;
  for (std::int64_t i = 0; i < ne; ++i) {
    const auto u = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(3 * i), static_cast<std::uint64_t>(nv)));
    const auto v = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(3 * i + 1), static_cast<std::uint64_t>(nv)));
    const auto w = static_cast<Weight>(1 + rng.below(static_cast<std::uint64_t>(3 * i + 2), 5));
    el.add(u, v, w);
    expected_total += w;
  }
  const auto g = build_community_graph(el);
  const auto check = validate_graph(g);
  ASSERT_TRUE(check.ok()) << check.error;
  EXPECT_EQ(g.total_weight, expected_total);
  const auto s = graph_stats(g);
  EXPECT_EQ(s.num_vertices, nv);
  EXPECT_LE(s.num_edges, ne);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BuilderPropertyTest,
    ::testing::Values(std::tuple{10, std::int64_t{50}, std::uint64_t{1}},
                      std::tuple{100, std::int64_t{1000}, std::uint64_t{2}},
                      std::tuple{1000, std::int64_t{20000}, std::uint64_t{3}},
                      std::tuple{17, std::int64_t{500}, std::uint64_t{4}},
                      std::tuple{2, std::int64_t{100}, std::uint64_t{5}},
                      std::tuple{1, std::int64_t{20}, std::uint64_t{6}}));

}  // namespace
}  // namespace commdet
