// Dynamic-update subsystem: delta normalization, the incremental
// apply_delta merge path (property-checked against a full rebuild),
// label compaction, halo expansion, seeded re-agglomeration, the
// DynamicCommunities facade, state persistence, and delta-file I/O.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "commdet/core/metrics.hpp"
#include "commdet/dyn/dynamic_communities.hpp"
#include "commdet/dyn/seeded.hpp"
#include "commdet/gen/planted_partition.hpp"
#include "commdet/gen/rmat.hpp"
#include "commdet/gen/simple_graphs.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/graph/delta.hpp"
#include "commdet/graph/validate.hpp"
#include "commdet/io/delta_text.hpp"
#include "commdet/robust/sanitize.hpp"
#include "commdet/util/rng.hpp"

namespace commdet {
namespace {

using V32 = std::int32_t;
using V64 = std::int64_t;

template <VertexId V>
[[nodiscard]] EdgeList<V> two_cliques(std::int64_t size) {
  EdgeList<V> g;
  g.num_vertices = static_cast<V>(2 * size);
  for (std::int64_t c = 0; c < 2; ++c)
    for (std::int64_t i = 0; i < size; ++i)
      for (std::int64_t j = i + 1; j < size; ++j)
        g.add(static_cast<V>(c * size + i), static_cast<V>(c * size + j));
  return g;
}

// ---------------------------------------------------------------------------
// normalize_deltas

TEST(NormalizeDeltas, HashedOrderSortedAndDeduplicated) {
  DeltaBatch<V32> batch;
  batch.insert(5, 2, 3);   // mixed parity -> stored (5, 2)
  batch.insert(2, 4, 1);   // same parity  -> stored (2, 4)
  batch.insert(4, 2, 7);   // duplicate of {2,4}: last writer wins
  batch.erase(9, 9);       // self-loop stays (9, 9)
  const auto n = normalize_deltas(batch);
  ASSERT_EQ(n.size(), 3u);
  for (std::size_t i = 1; i < n.size(); ++i) {
    const bool sorted = n[i - 1].u < n[i].u || (n[i - 1].u == n[i].u && n[i - 1].v < n[i].v);
    EXPECT_TRUE(sorted) << "not sorted at " << i;
  }
  for (const auto& d : n) {
    if (d.u != d.v) {
      const auto [f, s] = hashed_edge_order(d.u, d.v);
      EXPECT_EQ(f, d.u);
      EXPECT_EQ(s, d.v);
    }
    if (d.u == 2 && d.v == 4) {
      EXPECT_EQ(d.w, 7) << "last writer must win";
    }
  }
}

TEST(NormalizeDeltas, LastWriterWinsAcrossOpKinds) {
  DeltaBatch<V32> batch;
  batch.insert(1, 3, 5);
  batch.reweight(3, 1, 2);
  batch.erase(1, 3);  // the surviving op
  const auto n = normalize_deltas(batch);
  ASSERT_EQ(n.size(), 1u);
  EXPECT_EQ(n[0].op, DeltaOp::kDelete);
}

TEST(NormalizeDeltas, EmptyBatch) {
  const DeltaBatch<V32> batch;
  EXPECT_TRUE(normalize_deltas(batch).empty());
}

// ---------------------------------------------------------------------------
// apply_delta

// Reference model: canonical (min,max) -> weight map plus a self-loop
// map, mutated per normalized-delta semantics, then rebuilt from
// scratch.  apply_delta must produce the identical graph arrays.
template <VertexId V>
void check_apply_matches_rebuild(const CommunityGraph<V>& g,
                                 const std::vector<EdgeDelta<V>>& normalized) {
  std::map<std::pair<V, V>, Weight> edges;
  std::map<V, Weight> selves;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto i = static_cast<std::size_t>(e);
    const V a = std::min(g.efirst[i], g.esecond[i]);
    const V b = std::max(g.efirst[i], g.esecond[i]);
    edges[{a, b}] = g.eweight[i];
  }
  for (V v = 0; v < g.nv; ++v)
    if (g.self_weight[static_cast<std::size_t>(v)] > 0)
      selves[v] = g.self_weight[static_cast<std::size_t>(v)];

  for (const auto& d : normalized) {
    if (d.u == d.v) {
      switch (d.op) {
        case DeltaOp::kInsert: selves[d.u] += d.w; break;
        case DeltaOp::kDelete: selves.erase(d.u); break;
        case DeltaOp::kReweight: selves[d.u] = d.w; break;
      }
      continue;
    }
    const std::pair<V, V> key{std::min(d.u, d.v), std::max(d.u, d.v)};
    switch (d.op) {
      case DeltaOp::kInsert: edges[key] += d.w; break;
      case DeltaOp::kDelete: edges.erase(key); break;
      case DeltaOp::kReweight: edges[key] = d.w; break;
    }
  }

  EdgeList<V> reference;
  reference.num_vertices = g.nv;
  for (const auto& [key, w] : edges) reference.add(key.first, key.second, w);
  for (const auto& [v, w] : selves) reference.add(v, v, w);
  const auto want = build_community_graph(reference);

  const auto got = apply_delta(g, std::span<const EdgeDelta<V>>(normalized));
  ASSERT_TRUE(validate_graph(got.graph).ok()) << validate_graph(got.graph).error;
  EXPECT_EQ(got.graph.nv, want.nv);
  EXPECT_EQ(got.graph.bucket_begin, want.bucket_begin);
  EXPECT_EQ(got.graph.bucket_end, want.bucket_end);
  EXPECT_EQ(got.graph.self_weight, want.self_weight);
  EXPECT_EQ(got.graph.volume, want.volume);
  EXPECT_EQ(got.graph.efirst, want.efirst);
  EXPECT_EQ(got.graph.esecond, want.esecond);
  EXPECT_EQ(got.graph.eweight, want.eweight);
  EXPECT_EQ(got.graph.total_weight, want.total_weight);
}

template <VertexId V>
void apply_delta_property(std::uint64_t seed) {
  RmatParams p;
  p.scale = 9;
  p.edge_factor = 8;
  p.seed = seed;
  const auto g = build_community_graph(generate_rmat<V>(p));
  const auto nv = static_cast<std::uint64_t>(g.nv);

  const CounterRng rng(seed, 77);
  DeltaBatch<V> batch;
  for (std::uint64_t i = 0; i < 400; ++i) {
    const V u = static_cast<V>(rng.below(3 * i, nv));
    const V v = static_cast<V>(rng.below(3 * i + 1, nv));
    switch (rng.below(3 * i + 2, 4)) {
      case 0: batch.insert(u, v, 1 + static_cast<Weight>(rng.below(3 * i + 2, 5))); break;
      case 1: batch.erase(u, v); break;
      case 2: batch.reweight(u, v, 1 + static_cast<Weight>(rng.below(3 * i + 2, 9))); break;
      default: {
        // Delete an existing edge so deletions regularly hit something.
        if (g.num_edges() == 0) break;
        const auto e = static_cast<std::size_t>(
            rng.below(3 * i + 2, static_cast<std::uint64_t>(g.num_edges())));
        batch.erase(g.efirst[e], g.esecond[e]);
        break;
      }
    }
  }
  check_apply_matches_rebuild(g, normalize_deltas(batch));
}

TEST(ApplyDelta, PropertyMatchesFullRebuild32) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) apply_delta_property<V32>(seed);
}

TEST(ApplyDelta, PropertyMatchesFullRebuild64) {
  apply_delta_property<V64>(5);
}

TEST(ApplyDelta, CategorySemanticsAndReport) {
  EdgeList<V32> el;
  el.num_vertices = 6;
  el.add(0, 1, 4);
  el.add(1, 2, 2);
  el.add(3, 3, 5);  // self-loop
  const auto g = build_community_graph(el);

  DeltaBatch<V32> batch;
  batch.insert(0, 1, 3);    // strengthen existing: 4 -> 7
  batch.insert(4, 5, 2);    // create
  batch.erase(1, 2);        // delete existing
  batch.erase(0, 5);        // delete missing: no-op
  batch.reweight(2, 4, 9);  // upsert
  batch.insert(3, 3, 1);    // self-loop: 5 -> 6
  const auto normalized = normalize_deltas(batch);
  const auto r = apply_delta(g, std::span<const EdgeDelta<V32>>(normalized));

  EXPECT_EQ(r.report.strengthened, 1);
  EXPECT_EQ(r.report.inserted, 1);
  EXPECT_EQ(r.report.deleted, 1);
  EXPECT_EQ(r.report.missing_deletes, 1);
  EXPECT_EQ(r.report.upserts, 1);
  EXPECT_EQ(r.report.self_loop_updates, 1);
  EXPECT_EQ(r.report.effective, 5);  // everything but the missing delete
  ASSERT_TRUE(validate_graph(r.graph).ok()) << validate_graph(r.graph).error;

  // {0,5} only appears in the missing delete, so 0 and 5 are touched via
  // other deltas; vertex 3's self-loop change marks it too.
  const std::vector<V32> want_touched{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(r.touched, want_touched);

  // Weight bookkeeping: +3 (strengthen) +2 (create) -2 (delete) +9
  // (upsert) +1 (self) = +13.
  EXPECT_EQ(r.graph.total_weight, g.total_weight + 13);
}

TEST(ApplyDelta, NoEffectiveChangeTouchesNothing) {
  const auto g = build_community_graph(two_cliques<V32>(4));
  DeltaBatch<V32> batch;
  batch.erase(0, 5);  // crosses the cliques; edge does not exist
  const auto normalized = normalize_deltas(batch);
  const auto r = apply_delta(g, std::span<const EdgeDelta<V32>>(normalized));
  EXPECT_TRUE(r.touched.empty());
  EXPECT_EQ(r.report.effective, 0);
  EXPECT_EQ(r.graph.total_weight, g.total_weight);
}

TEST(ApplyDelta, RejectsBadInput) {
  const auto g = build_community_graph(two_cliques<V32>(3));
  {
    DeltaBatch<V32> batch;
    batch.insert(0, 99, 1);
    const auto n = normalize_deltas(batch);
    EXPECT_THROW((void)apply_delta(g, std::span<const EdgeDelta<V32>>(n)),
                 std::invalid_argument);
  }
  {
    DeltaBatch<V32> batch;
    batch.deltas.push_back({DeltaOp::kInsert, 0, 1, 0});  // non-positive weight
    const auto n = normalize_deltas(batch);
    EXPECT_THROW((void)apply_delta(g, std::span<const EdgeDelta<V32>>(n)),
                 std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// compact_labels

TEST(CompactLabels, DensifiesPreservingOrder) {
  std::vector<V32> labels{7, 2, 7, 9, 2};
  EXPECT_EQ(compact_labels(labels), 3);
  const std::vector<V32> want{1, 0, 1, 2, 0};
  EXPECT_EQ(labels, want);
}

TEST(CompactLabels, IdentityOnDenseLabels) {
  std::vector<V32> labels{0, 2, 1, 2, 0};
  const auto copy = labels;
  EXPECT_EQ(compact_labels(labels), 3);
  EXPECT_EQ(labels, copy) << "compaction of dense labels must be the identity";
}

TEST(CompactLabels, EmptyAndMemberForm) {
  std::vector<V32> empty;
  EXPECT_EQ(compact_labels(empty), 0);

  Clustering<V32> c;
  c.community = {5, 5, 8};
  c.num_communities = 9;
  c.compact_labels();
  EXPECT_EQ(c.num_communities, 2);
  const std::vector<V32> want{0, 0, 1};
  EXPECT_EQ(c.community, want);
}

// ---------------------------------------------------------------------------
// halo + seeds

TEST(ExpandHalo, ExactRadiusOnPath) {
  // Path 0-1-2-3-4-5: touched {0}; radius grows one hop per pass.
  EdgeList<V32> el;
  el.num_vertices = 6;
  for (V32 v = 0; v + 1 < 6; ++v) el.add(v, v + 1);
  const auto g = build_community_graph(el);
  const std::vector<V32> touched{0};

  const auto h0 = expand_halo(g, std::span<const V32>(touched), 0);
  const auto h1 = expand_halo(g, std::span<const V32>(touched), 1);
  const auto h2 = expand_halo(g, std::span<const V32>(touched), 2);
  const auto count = [](const std::vector<std::uint8_t>& f) {
    std::int64_t n = 0;
    for (const auto x : f) n += x;
    return n;
  };
  EXPECT_EQ(count(h0), 1);
  EXPECT_EQ(count(h1), 2);
  EXPECT_EQ(count(h2), 3);
  EXPECT_TRUE(h2[0] && h2[1] && h2[2]);
  EXPECT_FALSE(h2[3] || h2[4] || h2[5]);
}

TEST(SeedLabels, UnseatsDirtyIntoSingletons) {
  const std::vector<V32> base{0, 0, 1, 1, 1};
  const std::vector<std::uint8_t> dirty{0, 1, 0, 0, 1};
  const auto [labels, k] = seed_labels<V32>(std::span<const V32>(base),
                                            std::span<const std::uint8_t>(dirty));
  // Survivors: {0} and {2,3} keep shared labels; 1 and 4 become unique.
  EXPECT_EQ(k, 4);
  EXPECT_EQ(labels[2], labels[3]);
  EXPECT_NE(labels[1], labels[4]);
  EXPECT_NE(labels[1], labels[0]);
  EXPECT_NE(labels[4], labels[2]);
  for (const auto l : labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 4);
  }
}

// ---------------------------------------------------------------------------
// DynamicCommunities

TEST(DynamicCommunities, ZeroLengthBatchReproducesClusteringBitForBit) {
  DynamicCommunities<V32> dyn(build_community_graph(two_cliques<V32>(6)));
  const auto before = dyn.clustering().community;

  const auto row = dyn.apply_batch(DeltaBatch<V32>{});
  ASSERT_TRUE(row.has_value()) << row.error().message();
  EXPECT_EQ(row->effective, 0);
  EXPECT_EQ(dyn.clustering().community, before);

  // A batch whose every delta is a no-op must behave identically.
  DeltaBatch<V32> noop;
  noop.erase(0, 7);  // absent cross-clique edge
  const auto row2 = dyn.apply_batch(noop);
  ASSERT_TRUE(row2.has_value()) << row2.error().message();
  EXPECT_EQ(row2->effective, 0);
  EXPECT_EQ(dyn.clustering().community, before);
  EXPECT_EQ(dyn.stats().batches, 2);
}

TEST(DynamicCommunities, InsertThenDeleteSameBatchIsNoOp) {
  DynamicCommunities<V32> dyn(build_community_graph(two_cliques<V32>(6)));
  const auto before = dyn.clustering().community;

  DeltaBatch<V32> batch;
  batch.insert(0, 6, 3);  // new cross-clique edge ...
  batch.erase(0, 6);      // ... retracted in the same batch
  const auto row = dyn.apply_batch(batch);
  ASSERT_TRUE(row.has_value()) << row.error().message();
  // Last-writer-wins leaves one delete of an absent edge: nothing
  // changes and the clustering is reproduced bit for bit.
  EXPECT_EQ(row->effective, 0);
  EXPECT_EQ(dyn.clustering().community, before);
}

TEST(DynamicCommunities, InsertThenDeleteAcrossBatchesRestoresModularity) {
  DynamicCommunities<V32> dyn(build_community_graph(two_cliques<V32>(8)));
  const double mod0 = dyn.clustering().final_modularity;
  EXPECT_GT(mod0, 0.3);

  DeltaBatch<V32> add;
  add.insert(0, 8, 2);
  ASSERT_TRUE(dyn.apply_batch(add).has_value());

  DeltaBatch<V32> remove;
  remove.erase(0, 8);
  const auto row = dyn.apply_batch(remove);
  ASSERT_TRUE(row.has_value()) << row.error().message();

  // The graph is back to the original; re-agglomeration must land on a
  // clustering of identical quality (two cliques have one optimum).
  EXPECT_NEAR(row->modularity, mod0, 1e-9);
  EXPECT_EQ(dyn.num_communities(), 2);
}

TEST(DynamicCommunities, LabelsStayDenseAndStableAcrossTenBatches) {
  PlantedPartitionParams p;
  p.num_vertices = 2048;
  p.num_blocks = 32;
  p.internal_degree = 12.0;
  p.external_degree = 2.0;
  DynamicCommunities<V32> dyn(build_community_graph(generate_planted_partition<V32>(p)));

  const CounterRng rng(17, 5);
  for (int b = 0; b < 10; ++b) {
    DeltaBatch<V32> batch;
    for (int i = 0; i < 40; ++i) {
      const auto c = static_cast<std::uint64_t>(b * 1000 + i * 3);
      const auto u = static_cast<V32>(rng.below(c, 2048));
      const auto v = static_cast<V32>(rng.below(c + 1, 2048));
      if (rng.below(c + 2, 2) == 0) {
        batch.insert(u, v);
      } else {
        batch.erase(u, v);
      }
    }
    const auto row = dyn.apply_batch(batch);
    ASSERT_TRUE(row.has_value()) << row.error().message();

    // Dense label invariant after every batch: max label + 1 equals the
    // community count and re-compaction is the identity.
    auto labels = dyn.clustering().community;
    V32 max_label = -1;
    for (const auto l : labels) max_label = std::max(max_label, l);
    EXPECT_EQ(static_cast<std::int64_t>(max_label) + 1, dyn.num_communities());
    const auto copy = labels;
    EXPECT_EQ(compact_labels(labels), dyn.num_communities());
    EXPECT_EQ(labels, copy) << "labels must already be compact after batch " << b;
    EXPECT_LE(dyn.num_communities(), 2048);
  }
  EXPECT_EQ(dyn.stats().batches, 10);
  EXPECT_EQ(static_cast<std::int64_t>(dyn.stats().batch_rows.size()), 10);
}

TEST(DynamicCommunities, SeededQualityTracksFullRecompute) {
  PlantedPartitionParams p;
  p.num_vertices = 4096;
  p.num_blocks = 64;
  p.internal_degree = 14.0;
  p.external_degree = 2.0;
  const auto el = generate_planted_partition<V32>(p);
  DynamicCommunities<V32> dyn(build_community_graph(el));

  const CounterRng rng(23, 9);
  DeltaBatch<V32> batch;
  for (int i = 0; i < 300; ++i) {
    const auto c = static_cast<std::uint64_t>(i * 3);
    const auto u = static_cast<V32>(rng.below(c, 4096));
    const auto v = static_cast<V32>(rng.below(c + 1, 4096));
    if (rng.below(c + 2, 3) == 0) {
      batch.erase(u, v);
    } else {
      batch.insert(u, v);
    }
  }
  const auto row = dyn.apply_batch(batch);
  ASSERT_TRUE(row.has_value()) << row.error().message();

  const auto full = detect_communities(dyn.graph());
  EXPECT_GT(full.final_modularity, 0.4);
  EXPECT_NEAR(row->modularity, full.final_modularity,
              0.05 * std::abs(full.final_modularity))
      << "seeded quality must stay within 5% of a from-scratch run";

  // The committed clustering really evaluates to the reported quality.
  const auto q = evaluate_partition(
      dyn.graph(), std::span<const V32>(dyn.clustering().community.data(),
                                        dyn.clustering().community.size()));
  EXPECT_NEAR(q.modularity, row->modularity, 1e-9);
}

TEST(DynamicCommunities, DeadlineBeforeRecomputeRollsBack) {
  DynamicOptions opts;
  opts.batch_budget.max_seconds = 1e-12;  // fires at the first check
  DynamicCommunities<V32> dyn(build_community_graph(two_cliques<V32>(6)), opts);
  const auto before = dyn.clustering().community;
  const auto weight_before = dyn.graph().total_weight;

  DeltaBatch<V32> batch;
  batch.insert(0, 6, 1);
  const auto row = dyn.apply_batch(batch);
  ASSERT_FALSE(row.has_value());
  EXPECT_EQ(row.error().code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(dyn.clustering().community, before);
  EXPECT_EQ(dyn.graph().total_weight, weight_before);
  EXPECT_EQ(dyn.stats().rolled_back, 1);
  EXPECT_EQ(dyn.stats().batches, 0);
}

TEST(DynamicCommunities, CommunityStatsAreConsistent) {
  DynamicCommunities<V32> dyn(build_community_graph(two_cliques<V32>(5)));
  ASSERT_EQ(dyn.num_communities(), 2);
  std::int64_t total_size = 0;
  Weight total_volume = 0;
  for (V32 c = 0; c < 2; ++c) {
    const auto& s = dyn.community_stats(c);
    total_size += s.size;
    total_volume += s.volume;
    EXPECT_EQ(s.size, 5);
    EXPECT_EQ(s.internal_weight, 10);  // C(5,2) unit edges
  }
  EXPECT_EQ(total_size, 10);
  EXPECT_EQ(total_volume, 2 * dyn.graph().total_weight);
  EXPECT_EQ(dyn.community_of(0), dyn.community_of(4));
  EXPECT_NE(dyn.community_of(0), dyn.community_of(5));
}

TEST(DynamicCommunities, SaveLoadRoundTripAndFingerprintRefusal) {
  const std::string dir = testing::TempDir() + "/dyn_state_rt";
  std::filesystem::remove_all(dir);
  DynamicOptions opts;
  opts.halo_hops = 2;
  DynamicCommunities<V32> dyn(build_community_graph(two_cliques<V32>(6)), opts);
  DeltaBatch<V32> batch;
  batch.insert(1, 7, 2);
  ASSERT_TRUE(dyn.apply_batch(batch).has_value());
  EXPECT_EQ(dyn.save_state(dir), 1);

  auto loaded = DynamicCommunities<V32>::load_state(dir, opts);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message();
  EXPECT_EQ(loaded->clustering().community, dyn.clustering().community);
  EXPECT_EQ(loaded->graph().total_weight, dyn.graph().total_weight);
  EXPECT_EQ(loaded->stats().batches, 1);
  EXPECT_EQ(loaded->loaded_generation(), 1);
  EXPECT_TRUE(validate_graph(loaded->graph()).ok());

  // The loaded instance keeps working.
  DeltaBatch<V32> more;
  more.erase(1, 7);
  EXPECT_TRUE(loaded->apply_batch(more).has_value());

  DynamicOptions other = opts;
  other.halo_hops = 3;
  const auto refused = DynamicCommunities<V32>::load_state(dir, other);
  ASSERT_FALSE(refused.has_value());
  EXPECT_EQ(refused.error().code, ErrorCode::kCheckpointMismatch);
  std::filesystem::remove_all(dir);
}

TEST(DynamicCommunities, SaveRotatesGenerationsAndLoadFallsBackPastCorruption) {
  const std::string dir = testing::TempDir() + "/dyn_state_rot";
  std::filesystem::remove_all(dir);
  DynamicOptions opts;
  DynamicCommunities<V32> dyn(build_community_graph(two_cliques<V32>(6)), opts);
  DeltaBatch<V32> b1;
  b1.insert(0, 6, 1);
  ASSERT_TRUE(dyn.apply_batch(b1).has_value());
  EXPECT_EQ(dyn.save_state(dir, /*keep_generations=*/2), 1);
  const auto labels_gen1 = dyn.clustering().community;

  DeltaBatch<V32> b2;
  b2.insert(1, 7, 3);
  ASSERT_TRUE(dyn.apply_batch(b2).has_value());
  EXPECT_EQ(dyn.save_state(dir, 2), 2);
  ASSERT_EQ(list_checkpoints(dir).size(), 2u);

  // Truncate the newest generation: load_state must fall back to gen 1.
  {
    std::ofstream corrupt(checkpoint_path(dir, 2),
                          std::ios::binary | std::ios::trunc);
    corrupt << "garbage";
  }
  auto loaded = DynamicCommunities<V32>::load_state(dir, opts);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message();
  EXPECT_EQ(loaded->loaded_generation(), 1);
  EXPECT_EQ(loaded->stats().batches, 1);
  EXPECT_EQ(loaded->clustering().community, labels_gen1);

  // Retention: a third save with keep_generations=2 prunes generation 1.
  DeltaBatch<V32> b3;
  b3.insert(2, 8, 1);
  ASSERT_TRUE(dyn.apply_batch(b3).has_value());
  EXPECT_EQ(dyn.save_state(dir, 2), 3);
  const auto gens = list_checkpoints(dir);
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens[0].first, 3);
  EXPECT_EQ(gens[1].first, 2);
  std::filesystem::remove_all(dir);
}

TEST(DynamicCommunities, CadenceTriggeredRefreshRunsAndCounts) {
  DynamicOptions opts;
  opts.refresh_every = 2;  // refresh on every second batch
  DynamicCommunities<V32> dyn(build_community_graph(two_cliques<V32>(6)), opts);
  for (int b = 0; b < 4; ++b) {
    DeltaBatch<V32> batch;
    batch.insert(static_cast<V32>(b), static_cast<V32>(6 + b), 1);
    const auto row = dyn.apply_batch(batch);
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(row->refreshed, b % 2 == 1) << "batch " << b;
    if (row->refreshed) {
      EXPECT_GE(row->refresh_seconds, 0.0);
    }
  }
  EXPECT_EQ(dyn.stats().full_refreshes, 2);
  EXPECT_TRUE(validate_graph(dyn.graph()).ok());
}

TEST(DynamicCommunities, DriftTriggeredRefreshFiresOnModularityDrop) {
  DynamicOptions opts;
  opts.refresh_margin = 0.01;  // any visible drop from the best-seen
  opts.halo_hops = 0;          // endpoint-only repair drifts fastest
  DynamicCommunities<V32> dyn(build_community_graph(two_cliques<V32>(8)), opts);
  // Rewire: delete intra-clique edges and bridge the cliques so the
  // maintained (kept_prior-guarded) labels lose modularity.
  bool refreshed = false;
  const CounterRng rng(7, 7);
  for (int b = 0; b < 12 && !refreshed; ++b) {
    DeltaBatch<V32> batch;
    const auto base = static_cast<V32>(rng.below(static_cast<std::uint64_t>(b), 8));
    batch.erase(base, static_cast<V32>((base + 1) % 8));
    batch.insert(base, static_cast<V32>(8 + (base + b) % 8), 4);
    const auto row = dyn.apply_batch(batch);
    ASSERT_TRUE(row.has_value());
    refreshed = row->refreshed;
  }
  EXPECT_TRUE(refreshed);
  EXPECT_GE(dyn.stats().full_refreshes, 1);
}

TEST(ExpandHaloAdaptive, StopsWhenFrontierCutShareFallsBelowThreshold) {
  // Two 8-cliques: a touched vertex inside one clique has a heavy
  // internal frontier, so hop 1 swallows its clique; after that the
  // dirty set's external cut is 0 and expansion stops.
  const auto g = build_community_graph(two_cliques<V32>(8));
  const std::vector<V32> touched{0};
  const auto halo = expand_halo_adaptive(g, std::span<const V32>(touched), 0.25, 4);
  ASSERT_EQ(halo.dirty.size(), static_cast<std::size_t>(g.nv));
  std::int64_t dirty_count = 0;
  for (const auto d : halo.dirty) dirty_count += d;
  EXPECT_EQ(dirty_count, 8);           // exactly the touched clique
  EXPECT_LE(halo.hops, 2);
  for (V32 v = 0; v < 8; ++v) EXPECT_TRUE(halo.dirty[static_cast<std::size_t>(v)]);
  for (V32 v = 8; v < 16; ++v) EXPECT_FALSE(halo.dirty[static_cast<std::size_t>(v)]);
}

TEST(ExpandHaloAdaptive, MaxHopsBoundsExpansion) {
  // A long path keeps the frontier cut share high; max_hops must cap it.
  EdgeList<V32> path;
  path.num_vertices = 64;
  for (V32 i = 0; i + 1 < 64; ++i) path.add(i, i + 1);
  const auto g = build_community_graph(path);
  const std::vector<V32> touched{0};
  const auto halo = expand_halo_adaptive(g, std::span<const V32>(touched), 0.0, 3);
  EXPECT_LE(halo.hops, 3);
  std::int64_t dirty_count = 0;
  for (const auto d : halo.dirty) dirty_count += d;
  EXPECT_LE(dirty_count, 1 + 3);  // seed + one vertex per hop down the path
}

TEST(DynamicCommunities, AdaptiveHaloBatchRecordsHopsUsed) {
  DynamicOptions opts;
  opts.halo_hops = -1;  // adaptive
  DynamicCommunities<V32> dyn(build_community_graph(two_cliques<V32>(6)), opts);
  DeltaBatch<V32> batch;
  batch.insert(0, 6, 2);
  const auto row = dyn.apply_batch(batch);
  ASSERT_TRUE(row.has_value());
  EXPECT_GE(row->halo_hops_used, 0);
  EXPECT_LE(row->halo_hops_used, opts.halo_max_hops);
  EXPECT_TRUE(validate_graph(dyn.graph()).ok());
}

TEST(DynamicCommunities, ReplayBatchReproducesRecordedOutcome) {
  // Source of truth: a live instance applies a batch; its label diff +
  // CRC becomes the "WAL commit record" replayed onto a twin.
  const auto edges = two_cliques<V32>(6);
  DynamicOptions opts;
  DynamicCommunities<V32> live(build_community_graph(edges), opts);
  const auto before = live.clustering().community;
  DeltaBatch<V32> batch;
  batch.insert(2, 9, 3);
  const auto row = live.apply_batch(batch);
  ASSERT_TRUE(row.has_value());

  std::vector<DynamicCommunities<V32>::LabelChange> changes;
  const auto& after = live.clustering().community;
  for (std::size_t i = 0; i < after.size(); ++i) {
    if (i >= before.size() || before[i] != after[i])
      changes.push_back({static_cast<std::int64_t>(i), static_cast<std::int64_t>(after[i])});
  }
  const auto crc = DynamicCommunities<V32>::labels_checksum(
      std::span<const V32>(after.data(), after.size()));

  DynamicCommunities<V32> twin(build_community_graph(edges), opts);
  const auto replayed = twin.replay_batch(
      batch, std::span<const DynamicCommunities<V32>::LabelChange>(changes),
      live.num_communities(), live.clustering().final_modularity,
      live.clustering().final_coverage, crc);
  ASSERT_TRUE(replayed.has_value()) << replayed.error().message();
  EXPECT_EQ(twin.clustering().community, live.clustering().community);
  EXPECT_EQ(twin.num_communities(), live.num_communities());
  EXPECT_EQ(twin.stats().batches, 1);
  EXPECT_EQ(replayed->termination, "replayed");

  // A wrong checksum must be refused without mutating the labels.
  DynamicCommunities<V32> twin2(build_community_graph(edges), opts);
  const auto labels_before = twin2.clustering().community;
  const auto bad = twin2.replay_batch(
      batch, std::span<const DynamicCommunities<V32>::LabelChange>(changes),
      live.num_communities(), live.clustering().final_modularity,
      live.clustering().final_coverage, crc ^ 0xdeadbeefu);
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error().code, ErrorCode::kCheckpointMismatch);
  EXPECT_EQ(twin2.clustering().community, labels_before);
}

// ---------------------------------------------------------------------------
// sanitize_deltas

TEST(SanitizeDeltas, RejectPolicyFailsAnomalousBatch) {
  DeltaBatch<V32> batch;
  batch.insert(0, 1, 1);
  batch.insert(0, 50, 1);  // out of range for nv = 10
  SanitizeOptions opts;
  opts.policy = SanitizePolicy::kReject;
  const auto r = sanitize_deltas(batch, V32{10}, opts);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kBadEndpoint);
  EXPECT_EQ(r.error().phase, Phase::kSanitize);
}

TEST(SanitizeDeltas, RepairDropsAnomalies) {
  DeltaBatch<V32> batch;
  batch.insert(0, 1, 1);
  batch.insert(-3, 1, 1);                              // bad endpoint
  batch.deltas.push_back({DeltaOp::kReweight, 2, 3, 0});  // bad weight
  batch.erase(4, 99);                                  // bad endpoint
  const auto r = sanitize_deltas(batch, V32{10});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->bad_endpoints, 2);
  EXPECT_EQ(r->bad_weights, 1);
  EXPECT_EQ(r->removed, 3);
  ASSERT_EQ(batch.size(), 1);
  EXPECT_EQ(batch.deltas[0].v, 1);
}

TEST(SanitizeDeltas, CleanBatchUntouched) {
  DeltaBatch<V32> batch;
  batch.insert(0, 1, 1);
  batch.erase(2, 3);
  const auto r = sanitize_deltas(batch, V32{10});
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->clean());
  EXPECT_EQ(batch.size(), 2);
}

// ---------------------------------------------------------------------------
// delta text I/O

TEST(DeltaTextIo, RoundTrip) {
  DeltaBatch<V32> batch;
  batch.insert(3, 9, 4);
  batch.erase(1, 2);
  batch.reweight(5, 5, 7);
  const std::string path = testing::TempDir() + "/deltas.txt";
  write_delta_text(batch, path);
  const auto back = read_delta_text<V32>(path);
  ASSERT_EQ(back.size(), batch.size());
  EXPECT_EQ(back.deltas, batch.deltas);
  std::remove(path.c_str());
}

TEST(DeltaTextIo, DefaultInsertWeightAndComments) {
  const std::string path = testing::TempDir() + "/deltas_comments.txt";
  obs::write_text_file(path, "# header\n+ 1 2\n% noise\n- 4 6\n= 0 3 5\n");
  const auto batch = read_delta_text<V32>(path);
  ASSERT_EQ(batch.size(), 3);
  EXPECT_EQ(batch.deltas[0], (EdgeDelta<V32>{DeltaOp::kInsert, 1, 2, 1}));
  EXPECT_EQ(batch.deltas[1], (EdgeDelta<V32>{DeltaOp::kDelete, 4, 6, 0}));
  EXPECT_EQ(batch.deltas[2], (EdgeDelta<V32>{DeltaOp::kReweight, 0, 3, 5}));
  std::remove(path.c_str());
}

TEST(DeltaTextIo, MalformedLinesCarryStructuredErrors) {
  const auto expect_error = [](const std::string& content, ErrorCode code) {
    const std::string path = testing::TempDir() + "/bad_deltas.txt";
    obs::write_text_file(path, content);
    try {
      (void)read_delta_text<V32>(path);
      FAIL() << "expected CommdetError for: " << content;
    } catch (const CommdetError& e) {
      EXPECT_EQ(e.code(), code) << content;
      EXPECT_NE(e.error().detail.find(":1"), std::string::npos)
          << "line number missing: " << e.error().detail;
    }
    std::remove(path.c_str());
  };
  expect_error("? 1 2\n", ErrorCode::kIoParse);       // unknown op
  expect_error("+ 1\n", ErrorCode::kIoParse);         // missing endpoint
  expect_error("- 1 2 9\n", ErrorCode::kIoParse);     // delete takes no weight
  expect_error("= 1 2\n", ErrorCode::kIoParse);       // reweight needs weight
  expect_error("+ -4 2\n", ErrorCode::kBadEndpoint);  // negative id
  expect_error("+ 1 2 0\n", ErrorCode::kBadWeight);   // non-positive weight
  expect_error("+ 1 2 nan\n", ErrorCode::kBadWeight); // non-finite weight
}

TEST(DeltaTextIo, MissingFileIsIoOpen) {
  try {
    (void)read_delta_text<V32>("/nonexistent/deltas.txt");
    FAIL() << "expected CommdetError";
  } catch (const CommdetError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoOpen);
  }
}

}  // namespace
}  // namespace commdet
