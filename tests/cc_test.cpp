#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "commdet/cc/connected_components.hpp"
#include "commdet/gen/rmat.hpp"
#include "commdet/gen/simple_graphs.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/graph/validate.hpp"

namespace commdet {
namespace {

template <typename V>
class CcTypedTest : public ::testing::Test {};

using VertexTypes = ::testing::Types<std::int32_t, std::int64_t>;
TYPED_TEST_SUITE(CcTypedTest, VertexTypes);

TYPED_TEST(CcTypedTest, TwoTrianglesAreTwoComponents) {
  using V = TypeParam;
  EdgeList<V> el;
  el.num_vertices = 6;
  el.add(0, 1);
  el.add(1, 2);
  el.add(0, 2);
  el.add(3, 4);
  el.add(4, 5);
  el.add(3, 5);
  const auto labels = connected_components(el);
  EXPECT_EQ(count_components(labels), 2);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
  // Labels are minimum ids.
  EXPECT_EQ(labels[0], V{0});
  EXPECT_EQ(labels[3], V{3});
}

TYPED_TEST(CcTypedTest, IsolatedVerticesAreSingletons) {
  using V = TypeParam;
  EdgeList<V> el;
  el.num_vertices = 5;
  el.add(1, 3);
  const auto labels = connected_components(el);
  EXPECT_EQ(count_components(labels), 4);
}

TYPED_TEST(CcTypedTest, LargestComponentExtractsAndRelabels) {
  using V = TypeParam;
  EdgeList<V> el;
  el.num_vertices = 10;
  // Component A: 0..4 path (5 vertices).  Component B: 7-8 (2 vertices).
  for (V v = 0; v < 4; ++v) el.add(v, v + 1);
  el.add(7, 8);
  el.add(2, 2, 3);  // self-loop inside A must survive
  const auto lcc = largest_component(el);
  EXPECT_EQ(lcc.num_vertices, 5);
  EXPECT_EQ(lcc.num_edges(), 5);  // 4 path edges + self-loop
  const auto g = build_community_graph(lcc);
  EXPECT_TRUE(validate_graph(g).ok()) << validate_graph(g).error;
  EXPECT_EQ(g.self_weight[2], 3);  // relabeling is order-preserving
}

TYPED_TEST(CcTypedTest, ConnectedGraphIsOneComponent) {
  using V = TypeParam;
  const auto el = make_cycle<V>(1000);
  EXPECT_EQ(count_components(connected_components(el)), 1);
  const auto lcc = largest_component(el);
  EXPECT_EQ(lcc.num_vertices, 1000);
  EXPECT_EQ(lcc.num_edges(), 1000);
}

/// Serial reference for largest_component: a sequential union-find
/// (components named by their smallest vertex), the largest component
/// with the smallest root on a tie, ids dense in vertex order, and the
/// input's edges filtered in order.
template <typename V>
EdgeList<V> reference_largest_component(const EdgeList<V>& g) {
  const auto n = static_cast<std::size_t>(g.num_vertices);
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const auto& e : g.edges) {
    const auto a = find(static_cast<std::size_t>(e.u));
    const auto b = find(static_cast<std::size_t>(e.v));
    parent[std::max(a, b)] = std::min(a, b);
  }
  std::vector<std::int64_t> size(n, 0);
  for (std::size_t v = 0; v < n; ++v) ++size[find(v)];
  const auto root =
      static_cast<std::size_t>(std::max_element(size.begin(), size.end()) - size.begin());
  std::vector<V> id(n, V{-1});
  EdgeList<V> out;
  for (std::size_t v = 0; v < n; ++v)
    if (find(v) == root) id[v] = out.num_vertices++;
  for (const auto& e : g.edges)
    if (find(static_cast<std::size_t>(e.u)) == root)
      out.add(id[static_cast<std::size_t>(e.u)], id[static_cast<std::size_t>(e.v)], e.w);
  return out;
}

/// largest_component equals the serial reference at 1, 3 and 4 threads:
/// the same vertex count and the same edges in the same order.
template <typename V>
void expect_in_order_filter(const EdgeList<V>& g) {
  const auto want = reference_largest_component(g);
  const int saved = omp_get_max_threads();
  for (const int threads : {1, 3, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    omp_set_num_threads(threads);
    const auto got = largest_component(g);
    EXPECT_EQ(got.num_vertices, want.num_vertices);
    EXPECT_TRUE(got.edges == want.edges);
  }
  omp_set_num_threads(saved);
}

TYPED_TEST(CcTypedTest, LargestComponentIsSerialInOrderFilter) {
  using V = TypeParam;
  RmatParams p;
  p.scale = 14;
  p.edge_factor = 4;  // many small components beside the giant one
  const auto el = generate_rmat<V>(p);
  ASSERT_GT(count_components(connected_components(el)), 100);
  expect_in_order_filter(el);

  // The largest component lies in the high ids: every chunk of vertices
  // must count toward the sizes, not just the first.
  EdgeList<V> late;
  late.num_vertices = 20000;
  for (V v = 0; v + 1 < 20000; ++v)
    if (v + 1 != 6000) late.add(v, v + 1);
  expect_in_order_filter(late);
  EXPECT_EQ(largest_component(late).num_vertices, 14000);
}

TYPED_TEST(CcTypedTest, LargestComponentTieTakesSmallestRoot) {
  using V = TypeParam;
  // Two paths of 10000 vertices each, odd ids listed first: the even
  // path's root 0 beats the odd path's root 1.
  EdgeList<V> el;
  el.num_vertices = 20000;
  for (V v = 1; v + 2 < 20000; v += 2) el.add(v, v + 2);
  for (V v = 0; v + 2 < 20000; v += 2) el.add(v + 2, v, 3);
  expect_in_order_filter(el);
  const auto lcc = largest_component(el);
  ASSERT_EQ(lcc.num_vertices, 10000);
  EXPECT_EQ(lcc.edges.front(), (RawEdge<V>{1, 0, 3}));

  EdgeList<V> small;  // {1, 2, 3} and {5, 6, 7}: root 1 wins
  small.num_vertices = 8;
  small.add(6, 7);
  small.add(5, 6);
  small.add(2, 3);
  small.add(1, 2);
  const auto picked = largest_component(small);
  ASSERT_EQ(picked.num_vertices, 3);
  EXPECT_EQ(picked.edges, (BigVector<RawEdge<V>>{{1, 2, 1}, {0, 1, 1}}));
}

TYPED_TEST(CcTypedTest, LargestComponentGiantCoversNearlyAllVertices) {
  using V = TypeParam;
  // The contention case: 99.5% of 100000 vertices in one component
  // (a ring plus random chords and self-loops), the rest isolated or in
  // pairs, edges shuffled.
  constexpr V kGiant = 99500;
  std::mt19937_64 rng(3);
  EdgeList<V> el;
  el.num_vertices = 100000;
  for (V v = 0; v < kGiant; ++v) el.add(v, (v + 1) % kGiant);
  for (int i = 0; i < 200000; ++i)
    el.add(static_cast<V>(rng() % kGiant), static_cast<V>(rng() % kGiant), 2);
  for (V v = kGiant; v + 1 < 100000; v += 4) el.add(v, v + 1);
  std::shuffle(el.edges.begin(), el.edges.end(), rng);
  expect_in_order_filter(el);
  EXPECT_EQ(largest_component(el).num_vertices, kGiant);
}

TEST(Cc, RmatLargestComponentIsConnectedAndDominant) {
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 8;
  const auto el = generate_rmat<std::int32_t>(p);
  const auto lcc = largest_component(el);
  // R-MAT at edge factor 8 has a giant component covering most vertices.
  EXPECT_GT(lcc.num_vertices, el.num_vertices / 2);
  EXPECT_EQ(count_components(connected_components(lcc)), 1);
}

TEST(Cc, EmptyGraph) {
  EdgeList<std::int32_t> el;
  el.num_vertices = 0;
  EXPECT_EQ(count_components(connected_components(el)), 0);
}

}  // namespace
}  // namespace commdet
