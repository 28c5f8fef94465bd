#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "commdet/contract/bucket_sort_contractor.hpp"
#include "commdet/contract/hash_chain_contractor.hpp"
#include "commdet/gen/erdos_renyi.hpp"
#include "commdet/gen/rmat.hpp"
#include "commdet/gen/simple_graphs.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/graph/validate.hpp"
#include "commdet/match/matching.hpp"
#include "commdet/match/sequential_greedy_matcher.hpp"
#include "commdet/match/unmatched_list_matcher.hpp"
#include "commdet/score/score_edges.hpp"
#include "commdet/score/scorers.hpp"
#include "test_support.hpp"

namespace commdet {
namespace {

using V32 = std::int32_t;

template <typename V>
Matching<V> match_pairs(std::int64_t nv, std::vector<std::pair<V, V>> pairs) {
  Matching<V> m;
  m.mate.assign(static_cast<std::size_t>(nv), kNoVertex<V>);
  for (const auto& [a, b] : pairs) {
    m.mate[static_cast<std::size_t>(a)] = b;
    m.mate[static_cast<std::size_t>(b)] = a;
    ++m.num_pairs;
  }
  return m;
}

/// Canonical multiset of (min, max, weight) edges for graph comparison.
template <typename V>
std::map<std::pair<std::int64_t, std::int64_t>, Weight> edge_multiset(
    const CommunityGraph<V>& g) {
  std::map<std::pair<std::int64_t, std::int64_t>, Weight> out;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto i = static_cast<std::size_t>(e);
    const auto lo = std::min<std::int64_t>(g.efirst[i], g.esecond[i]);
    const auto hi = std::max<std::int64_t>(g.efirst[i], g.esecond[i]);
    out[{lo, hi}] += g.eweight[i];
  }
  return out;
}

enum class CKind { kBucket, kHash };

template <typename V>
ContractionResult<V> run(CKind kind, const CommunityGraph<V>& g, const Matching<V>& m) {
  if (kind == CKind::kHash) return HashChainContractor<V>{}.contract(g, m);
  return BucketSortContractor<V>{}.contract(g, m);
}

class ContractorTest : public ::testing::TestWithParam<CKind> {};

TEST_P(ContractorTest, PathContractionMergesPairs) {
  // Path 0-1-2-3, match (0,1) and (2,3):
  // new graph: 2 vertices, one edge of weight 1, self weights 1 each.
  const auto g = build_community_graph(make_path<V32>(4));
  const auto m = match_pairs<V32>(4, {{0, 1}, {2, 3}});
  const auto r = run(GetParam(), g, m);
  ASSERT_TRUE(validate_graph(r.graph).ok()) << validate_graph(r.graph).error;
  EXPECT_EQ(r.graph.num_vertices(), 2);
  EXPECT_EQ(r.graph.num_edges(), 1);
  EXPECT_EQ(r.graph.eweight[0], 1);
  EXPECT_EQ(r.graph.self_weight[0], 1);
  EXPECT_EQ(r.graph.self_weight[1], 1);
  EXPECT_EQ(r.graph.total_weight, g.total_weight);
  EXPECT_EQ(r.new_label[0], r.new_label[1]);
  EXPECT_EQ(r.new_label[2], r.new_label[3]);
  EXPECT_NE(r.new_label[0], r.new_label[2]);
}

TEST_P(ContractorTest, ParallelEdgesAccumulateOnContraction) {
  // Square 0-1-2-3-0.  Match (0,1) and (2,3): the two cross edges
  // {1,2} and {3,0} become parallel edges between the two new vertices
  // and must accumulate to weight 2.
  const auto g = build_community_graph(make_cycle<V32>(4));
  const auto m = match_pairs<V32>(4, {{0, 1}, {2, 3}});
  const auto r = run(GetParam(), g, m);
  ASSERT_TRUE(validate_graph(r.graph).ok()) << validate_graph(r.graph).error;
  EXPECT_EQ(r.graph.num_vertices(), 2);
  EXPECT_EQ(r.graph.num_edges(), 1);
  EXPECT_EQ(r.graph.eweight[0], 2);
  EXPECT_EQ(r.graph.total_weight, 4);
}

TEST_P(ContractorTest, EmptyMatchingKeepsGraphIsomorphic) {
  const auto g = build_community_graph(make_clique<V32>(6));
  Matching<V32> m;
  m.mate.assign(6, kNoVertex<V32>);
  const auto r = run(GetParam(), g, m);
  ASSERT_TRUE(validate_graph(r.graph).ok());
  EXPECT_EQ(r.graph.num_vertices(), 6);
  EXPECT_EQ(r.graph.num_edges(), g.num_edges());
  EXPECT_EQ(edge_multiset(r.graph), edge_multiset(g));
}

TEST_P(ContractorTest, SelfLoopsPropagateThroughMerges) {
  EdgeList<V32> el;
  el.num_vertices = 2;
  el.add(0, 0, 3);
  el.add(1, 1, 4);
  el.add(0, 1, 2);
  const auto g = build_community_graph(el);
  const auto m = match_pairs<V32>(2, {{0, 1}});
  const auto r = run(GetParam(), g, m);
  ASSERT_TRUE(validate_graph(r.graph).ok());
  EXPECT_EQ(r.graph.num_vertices(), 1);
  EXPECT_EQ(r.graph.num_edges(), 0);
  EXPECT_EQ(r.graph.self_weight[0], 9);  // 3 + 4 + merged edge 2
  EXPECT_EQ(r.graph.volume[0], 18);
  EXPECT_EQ(r.graph.total_weight, 9);
}

class ContractorPropertyTest
    : public ::testing::TestWithParam<std::tuple<CKind, std::uint64_t>> {};

TEST_P(ContractorPropertyTest, RandomGraphInvariantsSurviveRepeatedContraction) {
  const auto [kind, seed] = GetParam();
  auto g = build_community_graph(generate_erdos_renyi<V32>(500, 3000, seed));
  const Weight w0 = g.total_weight;
  std::vector<Score> scores;
  // Contract repeatedly with greedy matchings until exhausted.
  for (int level = 0; level < 20 && g.num_vertices() > 1; ++level) {
    score_edges(g, HeavyEdgeScorer{}, scores);
    const auto m = SequentialGreedyMatcher<V32>{}.match(g, scores);
    if (m.num_pairs == 0) break;
    auto r = run(kind, g, m);
    ASSERT_TRUE(validate_graph(r.graph).ok()) << validate_graph(r.graph).error;
    ASSERT_EQ(r.graph.total_weight, w0);  // weight conservation
    ASSERT_EQ(r.graph.num_vertices(), g.num_vertices() - static_cast<V32>(m.num_pairs));
    // Labels must be dense and consistent with the matching.
    for (V32 v = 0; v < g.num_vertices(); ++v) {
      const V32 p = m.mate[static_cast<std::size_t>(v)];
      ASSERT_GE(r.new_label[static_cast<std::size_t>(v)], 0);
      ASSERT_LT(r.new_label[static_cast<std::size_t>(v)], r.graph.num_vertices());
      if (p != kNoVertex<V32>) {
        ASSERT_EQ(r.new_label[static_cast<std::size_t>(v)], r.new_label[static_cast<std::size_t>(p)]);
      }
    }
    g = std::move(r.graph);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ContractorPropertyTest,
    ::testing::Combine(::testing::Values(CKind::kBucket, CKind::kHash),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

/// Every array of two contraction results, compared element for element.
template <typename V>
void expect_identical(const ContractionResult<V>& a, const ContractionResult<V>& b,
                      const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.new_label, b.new_label);
  EXPECT_EQ(a.graph.nv, b.graph.nv);
  EXPECT_EQ(a.graph.total_weight, b.graph.total_weight);
  EXPECT_EQ(a.graph.self_weight, b.graph.self_weight);
  EXPECT_EQ(a.graph.volume, b.graph.volume);
  EXPECT_EQ(a.graph.efirst, b.graph.efirst);
  EXPECT_EQ(a.graph.esecond, b.graph.esecond);
  EXPECT_EQ(a.graph.eweight, b.graph.eweight);
  EXPECT_EQ(a.graph.bucket_begin, b.graph.bucket_begin);
  EXPECT_EQ(a.graph.bucket_end, b.graph.bucket_end);
}

TEST(ContractorEquivalence, BothContractorsProduceIdenticalGraphs) {
  // Level 1 of a scale-14 R-MAT, matched once; both contractors
  // must produce the same arrays bit for bit, at 1 thread and at 4, and
  // the two thread counts must agree with each other.
  RmatParams p;
  p.scale = 14;
  p.edge_factor = 8;
  const auto g = build_community_graph(generate_rmat<V32>(p));
  std::vector<Score> scores;
  score_edges(g, ModularityScorer{}, scores);
  const auto m = UnmatchedListMatcher<V32>{}.match(g, scores);
  ASSERT_GT(m.num_pairs, 0);

  ThreadCountGuard guard;
  omp_set_num_threads(1);
  const auto serial = BucketSortContractor<V32>{}.contract(g, m);
  ASSERT_TRUE(validate_graph(serial.graph).ok()) << validate_graph(serial.graph).error;
  ASSERT_LT(serial.graph.num_edges(), g.num_edges());
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    omp_set_num_threads(threads);
    expect_identical(serial, BucketSortContractor<V32>{}.contract(g, m), "BucketSort");
    expect_identical(serial, HashChainContractor<V32>{}.contract(g, m), "HashChain");
  }
}

TEST(ContractorEquivalence, FewEdgesPerLabelMatchesHashChain) {
  // Matchings that leave about one edge per new vertex cap the label
  // kernel at fewer histogram chunks than threads (down to one).
  ThreadCountGuard guard;
  omp_set_num_threads(4);
  {
    // Path of 1001 vertices, every other edge matched: 501 labels, 1000 edges.
    const auto g = build_community_graph(make_path<V32>(1001));
    std::vector<std::pair<V32, V32>> pairs;
    for (V32 v = 0; v + 1 < 1001; v += 2) pairs.emplace_back(v, v + 1);
    const auto m = match_pairs<V32>(1001, pairs);
    expect_identical(BucketSortContractor<V32>{}.contract(g, m),
                     HashChainContractor<V32>{}.contract(g, m), "path");
  }
  {
    // Star of 1000 vertices with one spoke matched: 999 labels, 999 edges.
    const auto g = build_community_graph(make_star<V32>(1000));
    const auto m = match_pairs<V32>(1000, {{0, 1}});
    const auto r = BucketSortContractor<V32>{}.contract(g, m);
    EXPECT_EQ(r.graph.num_edges(), 998);
    expect_identical(r, HashChainContractor<V32>{}.contract(g, m), "star");
  }
  {
    // Nothing matched: 1000 labels but only 999 edges.
    const auto g = build_community_graph(make_star<V32>(1000));
    const auto m = match_pairs<V32>(1000, {});
    expect_identical(BucketSortContractor<V32>{}.contract(g, m),
                     HashChainContractor<V32>{}.contract(g, m), "unmatched star");
  }
}

TEST(ContractionBuffers, RecycledLevelsMatchFreshContraction) {
  // One ContractionBuffers carried through successive levels the way the
  // driver carries it: each replaced graph becomes the spare.  Every
  // recycled output must equal a fresh contraction of the same matching.
  RmatParams p;
  p.scale = 14;
  p.edge_factor = 8;
  const auto input = build_community_graph(generate_rmat<V32>(p));
  ThreadCountGuard guard;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    omp_set_num_threads(threads);
    ContractionBuffers<V32> buffers;
    auto g = input;
    int levels = 0;
    for (; levels < 12; ++levels) {
      std::vector<Score> scores;
      score_edges(g, ModularityScorer{}, scores);
      const auto m = UnmatchedListMatcher<V32>{}.match(g, scores);
      if (m.num_pairs == 0) break;
      const auto fresh = BucketSortContractor<V32>{}.contract(g, m);
      auto recycled = BucketSortContractor<V32>{}.contract(g, m, buffers);
      expect_identical(fresh, recycled, "recycled level");
      buffers.spare = std::exchange(g, std::move(recycled.graph));
    }
    EXPECT_GE(levels, 5);
    EXPECT_GT(buffers.retained_bytes(), 0);
  }
}

TEST(ContractionBuffers, SpareOfAnySizeGivesTheFreshOutput) {
  // The spare's edge arrays may be larger than the output (shrunk in
  // place), smaller but with room to grow (tail initialized), or smaller
  // than the output's capacity needs (reallocated).  Stale contents must
  // never leak into the result.
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 8;
  const auto g = build_community_graph(generate_rmat<V32>(p));
  std::vector<Score> scores;
  score_edges(g, ModularityScorer{}, scores);
  const auto m = UnmatchedListMatcher<V32>{}.match(g, scores);
  ASSERT_GT(m.num_pairs, 0);

  ThreadCountGuard guard;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    omp_set_num_threads(threads);
    const auto fresh = BucketSortContractor<V32>{}.contract(g, m);
    const auto out_ne = static_cast<std::size_t>(fresh.graph.num_edges());

    // Tiny spare: everything reallocates.
    ContractionBuffers<V32> tiny;
    tiny.spare = build_community_graph(make_path<V32>(5));
    expect_identical(fresh, BucketSortContractor<V32>{}.contract(g, m, tiny), "tiny spare");

    // Large capacity, small size: the arrays grow within their capacity.
    ContractionBuffers<V32> shrunk;
    shrunk.spare = g;
    shrunk.spare.efirst.resize(out_ne / 2);
    shrunk.spare.esecond.resize(out_ne / 2);
    shrunk.spare.eweight.resize(out_ne / 2);
    ASSERT_GE(shrunk.spare.esecond.capacity(), out_ne);
    expect_identical(fresh, BucketSortContractor<V32>{}.contract(g, m, shrunk), "shrunk spare");

    // Larger than the output: shrunk in place, stale tail ignored.
    ContractionBuffers<V32> large;
    large.spare = g;
    expect_identical(fresh, BucketSortContractor<V32>{}.contract(g, m, large), "large spare");
    EXPECT_TRUE(large.spare.efirst.empty()) << "the output takes over the spare";
  }
}

TEST(CopyOutBuckets, InPlaceMatchesCopy) {
  // Bucket v holds cap[v] scattered entries at off[v] - base, of which
  // the first len[v] survived accumulation.  Copying them out of the
  // scatter arrays and compacting them in place inside the output's own
  // arrays must give the same graph arrays, equal to a serial reference,
  // whatever the layout: shifts of zero, shifts shorter than the run
  // they move (one block, or staged blocks in parallel) and longer ones
  // (parallel rounds).  `lead` entries ahead of bucket 0 (off[0] > base,
  // as for one block of a window) must be closed too.
  struct Layout {
    const char* name;
    std::vector<EdgeId> cap;
    std::vector<EdgeId> len;
    EdgeId lead = 0;
  };
  std::mt19937_64 rng(22);
  const auto below = [&](EdgeId n) { return static_cast<EdgeId>(rng() % static_cast<std::uint64_t>(n)); };
  std::vector<Layout> layouts;
  const auto add = [&](const char* name, std::int64_t nb, auto&& cap_of, auto&& len_of) {
    Layout l{name, {}, {}};
    for (std::int64_t v = 0; v < nb; ++v) {
      l.cap.push_back(cap_of(v));
      l.len.push_back(len_of(v, l.cap.back()));
    }
    layouts.push_back(std::move(l));
  };
  const auto random_cap = [&](std::int64_t) { return below(40); };
  const auto random_len = [&](std::int64_t, EdgeId c) { return c == 0 ? 0 : 1 + below(c); };
  add("random", 40000, random_cap, random_len);
  add("no shrink", 40000, random_cap, [](std::int64_t, EdgeId c) { return c; });
  add("all shrunk to one entry", 40000, random_cap,
      [](std::int64_t, EdgeId c) { return std::min<EdgeId>(c, 1); });
  add("empty leading buckets", 60000,
      [&](std::int64_t v) { return v < 30000 ? 0 : below(40); }, random_len);
  add("one huge bucket", 20000,
      [&](std::int64_t v) { return v == 7000 ? 400000 : below(20); }, random_len);
  add("alternating empty and full", 40000,
      [&](std::int64_t v) { return v % 2 == 0 ? 0 : 1 + below(40); }, random_len);
  add("few shrinks", 40000, random_cap,
      [&](std::int64_t, EdgeId c) { return c > 0 && below(500) == 0 ? c - 1 : c; });
  add("tenth shrinks", 60000, random_cap,
      [&](std::int64_t, EdgeId c) { return c > 0 && below(10) == 0 ? c / 2 : c; });
  add("tiny", 5, [](std::int64_t v) { return v; }, [](std::int64_t, EdgeId c) { return c / 2; });
  add("none", 0, random_cap, random_len);
  add("short leading gap", 40000, random_cap,
      [](std::int64_t, EdgeId c) { return c; });
  layouts.back().lead = 5;
  add("long leading gap", 40000, random_cap, random_len);
  layouts.back().lead = 100000;

  ThreadCountGuard guard;
  const V32 lo = 7;
  const EdgeId base = 1000;
  for (const auto& layout : layouts) {
    SCOPED_TRACE(layout.name);
    const auto nb = layout.cap.size();
    std::vector<EdgeId> off{base + layout.lead};
    for (const EdgeId c : layout.cap) off.push_back(off.back() + c);
    const auto total = static_cast<std::size_t>(off.back() - base);
    std::vector<V32> second(total);
    std::vector<Weight> weight(total);
    for (std::size_t i = 0; i < total; ++i) {
      second[i] = static_cast<V32>(rng() % 1000000);
      weight[i] = static_cast<Weight>(rng() % 100);
    }
    CommunityGraph<V32> expect;
    for (std::size_t v = 0; v < nb; ++v) {
      expect.bucket_begin.push_back(static_cast<EdgeId>(expect.efirst.size()));
      for (EdgeId k = 0; k < layout.len[v]; ++k) {
        const auto at = static_cast<std::size_t>(off[v] - base + k);
        expect.efirst.push_back(lo + static_cast<V32>(v));
        expect.esecond.push_back(second[at]);
        expect.eweight.push_back(weight[at]);
      }
      expect.bucket_end.push_back(static_cast<EdgeId>(expect.efirst.size()));
    }
    const auto offs = std::span<const EdgeId>(off);
    const auto lens = std::span<const EdgeId>(layout.len);
    for (const int threads : {1, 3, 4}) {
      SCOPED_TRACE(testing::Message() << threads << " threads");
      omp_set_num_threads(threads);
      CommunityGraph<V32> copied;
      copied.esecond.assign(3, 5);  // stale contents are overwritten
      const EdgeId copied_ne = copy_out_buckets(offs, base, lens, std::span<const V32>(second),
                                                std::span<const Weight>(weight), lo, copied);
      CommunityGraph<V32> in_place;
      in_place.esecond = second;
      in_place.eweight = weight;
      const EdgeId in_place_ne = copy_out_buckets(
          offs, base, lens, std::span<const V32>(in_place.esecond),
          std::span<const Weight>(in_place.eweight), lo, in_place);
      EXPECT_EQ(copied_ne, expect.num_edges());
      EXPECT_EQ(in_place_ne, expect.num_edges());
      for (const auto* got : {&copied, &in_place}) {
        EXPECT_EQ(got->efirst, expect.efirst);
        EXPECT_EQ(got->esecond, expect.esecond);
        EXPECT_EQ(got->eweight, expect.eweight);
        EXPECT_EQ(got->bucket_begin, expect.bucket_begin);
        EXPECT_EQ(got->bucket_end, expect.bucket_end);
      }
      EXPECT_GE(in_place.esecond.capacity(), total) << "in place keeps the scatter's capacity";
    }
  }
}

TEST(SortAndAccumulate, DenseAndSortedPathsMatchReference) {
  // Buckets of every shape the two paths split on: keys packed within a
  // few words (dense accumulation), keys spread wide (sort), plus empty,
  // single-entry, all-duplicate, word-boundary and near-maximum keys,
  // and zero weights, which must still be emitted.  The offsets carry a
  // non-zero base, as shard_contract passes them.
  using Bucket = std::vector<std::pair<V32, Weight>>;
  std::vector<Bucket> buckets = {
      {},
      {{7, 3}},
      Bucket(50, {42, 2}),
      {{128, 1}, {63, 2}, {64, 3}, {127, 4}, {63, 5}, {128, 6}, {0, 7}, {64, 8}},
      {{1000000, 1}, {5, 1}},
      {{std::numeric_limits<V32>::max(), 1}, {std::numeric_limits<V32>::max() - 70, 2},
       {std::numeric_limits<V32>::max(), 3}, {std::numeric_limits<V32>::max() - 64, 0}},
      {{9, 0}, {9, 0}, {3, 0}},
  };
  std::mt19937_64 rng(14);
  for (int b = 0; b < 3000; ++b) {
    const auto n = static_cast<int>(rng() % 4 == 0 ? rng() % 600 : rng() % 24);
    const bool packed = rng() % 2 == 0;
    const auto lo = static_cast<V32>(rng() % (1 << 20));
    const auto span = packed ? static_cast<V32>(1 + rng() % (64 * 4)) : V32{1 << 30};
    Bucket bucket;
    for (int k = 0; k < n; ++k)
      bucket.emplace_back(packed ? lo + static_cast<V32>(rng() % span)
                                 : static_cast<V32>(rng() % span),
                          static_cast<Weight>(rng() % 5));
    buckets.push_back(std::move(bucket));
  }

  const EdgeId base = 12345;
  std::vector<EdgeId> off{base};
  std::vector<V32> second;
  std::vector<Weight> weight;
  std::vector<Bucket> expected;
  for (const auto& bucket : buckets) {
    for (const auto& [s, w] : bucket) {
      second.push_back(s);
      weight.push_back(w);
    }
    off.push_back(off.back() + static_cast<EdgeId>(bucket.size()));
    auto sorted = bucket;
    std::sort(sorted.begin(), sorted.end());
    Bucket merged;
    for (const auto& [s, w] : sorted) {
      if (!merged.empty() && merged.back().first == s)
        merged.back().second += w;
      else
        merged.emplace_back(s, w);
    }
    expected.push_back(std::move(merged));
  }

  ThreadCountGuard guard;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    omp_set_num_threads(threads);
    auto out_second = second;
    auto out_weight = weight;
    const auto result = sort_and_accumulate_buckets<V32>(
        std::span<const EdgeId>(off), base, std::span<V32>(out_second),
        std::span<Weight>(out_weight));
    ASSERT_EQ(result.new_len.size(), buckets.size());
    for (std::size_t v = 0; v < buckets.size(); ++v) {
      SCOPED_TRACE(testing::Message() << "bucket " << v);
      ASSERT_EQ(result.new_len[v], static_cast<EdgeId>(expected[v].size()));
      const auto at = static_cast<std::size_t>(off[v] - base);
      Bucket got;
      for (std::size_t k = 0; k < expected[v].size(); ++k)
        got.emplace_back(out_second[at + k], out_weight[at + k]);
      ASSERT_EQ(got, expected[v]);
    }
    // Both paths ran: some multi-entry buckets accumulated by key, some sorted.
    const auto multi = std::count_if(buckets.begin(), buckets.end(),
                                     [](const Bucket& b) { return b.size() > 1; });
    EXPECT_GT(result.dense_buckets, 0);
    EXPECT_LT(result.dense_buckets, multi);
  }
}

INSTANTIATE_TEST_SUITE_P(AllContractors, ContractorTest,
                         ::testing::Values(CKind::kBucket, CKind::kHash),
                         [](const auto& info) {
                           switch (info.param) {
                             case CKind::kBucket: return "BucketSort";
                             case CKind::kHash: return "HashChain";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace commdet
