// Google-benchmark microbenchmarks of the parallel primitives the
// algorithm is built from: prefix sum, compaction, histogram, parallel
// sort, R-MAT generation, scoring, matching, contraction.
//
// These quantify the per-primitive costs behind the paper's phase-level
// claims and catch performance regressions in the substrate.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "commdet/cc/connected_components.hpp"
#include "commdet/contract/bucket_sort_contractor.hpp"
#include "commdet/contract/hash_chain_contractor.hpp"
#include "commdet/gen/rmat.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/match/edge_sweep_matcher.hpp"
#include "commdet/match/unmatched_list_matcher.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/score/score_edges.hpp"
#include "commdet/util/compact.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/prefix_sum.hpp"
#include "commdet/util/rng.hpp"
#include "commdet/util/sort.hpp"

namespace {

using namespace commdet;
using V = std::int32_t;

void BM_PrefixSum(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::int64_t> data(n, 1);
  for (auto _ : state) {
    std::vector<std::int64_t> work(data);
    benchmark::DoNotOptimize(exclusive_prefix_sum(std::span<std::int64_t>(work)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_PrefixSum)->Arg(1 << 16)->Arg(1 << 20);

void BM_Compact(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::int32_t> data(n);
  std::iota(data.begin(), data.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(parallel_compact(std::span<const std::int32_t>(data),
                                              [](std::int32_t v) { return (v & 3) == 0; }));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_Compact)->Arg(1 << 20);

void BM_Histogram(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  CounterRng rng(1);
  std::vector<std::int32_t> keys(n);
  for (std::size_t i = 0; i < n; ++i)
    keys[i] = static_cast<std::int32_t>(rng.below(i, 4096));
  const auto count = [&](std::int64_t begin, std::int64_t end, const auto& acc) {
    for (std::int64_t i = begin; i < end; ++i) ++acc[0][static_cast<std::size_t>(keys[static_cast<std::size_t>(i)])];
  };
  for (auto _ : state) {
    std::vector<std::int64_t> counts(4096, 0);
    parallel_chunk_add(static_cast<std::int64_t>(n), parallel_threads(),
                       std::array{std::span<std::int64_t>(counts)}, count);
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_Histogram)->Arg(1 << 20);

void BM_ParallelSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  CounterRng rng(2);
  std::vector<std::uint64_t> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = rng.at(i);
  for (auto _ : state) {
    std::vector<std::uint64_t> work(data);
    parallel_sort(work.begin(), work.end());
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ParallelSort)->Arg(1 << 20);

void BM_RmatGenerate(benchmark::State& state) {
  RmatParams p;
  p.scale = static_cast<int>(state.range(0));
  p.edge_factor = 8;
  for (auto _ : state) benchmark::DoNotOptimize(generate_rmat<V>(p));
  state.SetItemsProcessed((std::int64_t{8} << p.scale) * state.iterations());
}
BENCHMARK(BM_RmatGenerate)->Arg(14)->Arg(16);

struct Fixture {
  CommunityGraph<V> graph;
  std::vector<Score> scores;
  Matching<V> matching;

  static const Fixture& get() {
    static const Fixture f = [] {
      Fixture fx;
      RmatParams p;
      p.scale = 15;
      p.edge_factor = 8;
      fx.graph = build_community_graph(largest_component(generate_rmat<V>(p)));
      score_edges(fx.graph, ModularityScorer{}, fx.scores);
      fx.matching = UnmatchedListMatcher<V>{}.match(fx.graph, fx.scores);
      return fx;
    }();
    return f;
  }
};

void BM_ScoreEdges(benchmark::State& state) {
  const auto& f = Fixture::get();
  std::vector<Score> scores;
  for (auto _ : state) benchmark::DoNotOptimize(score_edges(f.graph, ModularityScorer{}, scores));
  state.SetItemsProcessed(f.graph.num_edges() * state.iterations());
}
BENCHMARK(BM_ScoreEdges);

void BM_MatchUnmatchedList(benchmark::State& state) {
  const auto& f = Fixture::get();
  for (auto _ : state)
    benchmark::DoNotOptimize(UnmatchedListMatcher<V>{}.match(f.graph, f.scores));
  state.SetItemsProcessed(f.graph.num_edges() * state.iterations());
}
BENCHMARK(BM_MatchUnmatchedList);

void BM_MatchEdgeSweep(benchmark::State& state) {
  const auto& f = Fixture::get();
  for (auto _ : state)
    benchmark::DoNotOptimize(EdgeSweepMatcher<V>{}.match(f.graph, f.scores));
  state.SetItemsProcessed(f.graph.num_edges() * state.iterations());
}
BENCHMARK(BM_MatchEdgeSweep);

void BM_ContractBucketSort(benchmark::State& state) {
  const auto& f = Fixture::get();
  for (auto _ : state)
    benchmark::DoNotOptimize(BucketSortContractor<V>{}.contract(f.graph, f.matching));
  state.SetItemsProcessed(f.graph.num_edges() * state.iterations());
}
BENCHMARK(BM_ContractBucketSort);

void BM_ContractHashChain(benchmark::State& state) {
  const auto& f = Fixture::get();
  for (auto _ : state)
    benchmark::DoNotOptimize(HashChainContractor<V>{}.contract(f.graph, f.matching));
  state.SetItemsProcessed(f.graph.num_edges() * state.iterations());
}
BENCHMARK(BM_ContractHashChain);

// Observability overhead: the same scoring kernel with no sink (the
// default — counters resolve to nullptr) and with a live metrics
// registry + trace.  Compare against BM_ScoreEdges: the no-sink variant
// must be indistinguishable from it.
void BM_ScoreEdgesObsDisabled(benchmark::State& state) {
  const auto& f = Fixture::get();
  std::vector<Score> scores;
  for (auto _ : state) benchmark::DoNotOptimize(score_edges(f.graph, ModularityScorer{}, scores));
  state.SetItemsProcessed(f.graph.num_edges() * state.iterations());
}
BENCHMARK(BM_ScoreEdgesObsDisabled);

void BM_ScoreEdgesObsEnabled(benchmark::State& state) {
  const auto& f = Fixture::get();
  obs::Trace trace;
  obs::MetricsRegistry metrics;
  obs::TraceSession ts(trace);
  obs::MetricsSession ms(metrics);
  std::vector<Score> scores;
  for (auto _ : state) benchmark::DoNotOptimize(score_edges(f.graph, ModularityScorer{}, scores));
  state.SetItemsProcessed(f.graph.num_edges() * state.iterations());
}
BENCHMARK(BM_ScoreEdgesObsEnabled);

}  // namespace

BENCHMARK_MAIN();
