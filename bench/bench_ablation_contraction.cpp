// Ablation (Sec. IV-C): bucket-sort contraction vs the original
// Feo-style hash-of-linked-lists contraction (contract-only, on one
// matching), plus the driver's phase-time breakdown behind the paper's
// claim that contraction "requires from 40% to 80% of the execution
// time".
#include <omp.h>

#include <cstdio>

#include "bench_common.hpp"
#include "commdet/contract/bucket_sort_contractor.hpp"
#include "commdet/contract/hash_chain_contractor.hpp"
#include "commdet/match/unmatched_list_matcher.hpp"
#include "commdet/score/score_edges.hpp"
#include "commdet/util/timer.hpp"

int main(int argc, char** argv) {
  using namespace commdet;
  using V = std::int32_t;
  const auto cfg = bench::parse_args(argc, argv);

  std::printf("== Ablation: contraction data structure (Sec. IV-C) ==\n\n");
  const auto g = bench::build_rmat_workload<V>(cfg, cfg.scale, cfg.edge_factor);
  std::vector<Score> scores;
  score_edges(g, ModularityScorer{}, scores);
  const auto matching = UnmatchedListMatcher<V>{}.match(g, scores);
  std::printf("graph: %lld vertices, %lld edges, %lld matched pairs\n\n",
              static_cast<long long>(g.num_vertices()),
              static_cast<long long>(g.num_edges()),
              static_cast<long long>(matching.num_pairs));

  // Contraction phase in isolation (identical matching for both).
  std::printf("%-16s %10s %14s\n", "contractor", "best(s)", "edges-after");
  const auto time_contractor = [&](const char* name, auto contractor) {
    double best = 1e300;
    EdgeId ne_after = 0;
    for (int trial = 0; trial < cfg.trials; ++trial) {
      WallTimer t;
      const auto r = contractor.contract(g, matching);
      best = std::min(best, t.seconds());
      ne_after = r.graph.num_edges();
    }
    std::printf("%-16s %10.4f %14lld\n", name, best, static_cast<long long>(ne_after));
    std::printf("row,contract-only,%s,%.6f\n", name, best);
    bench::report().add(std::string("contract-only:") + name, omp_get_max_threads(), 0,
                        best, {{"edges_after", static_cast<double>(ne_after)}});
    return best;
  };
  const double t_bucket = time_contractor("bucket-sort", BucketSortContractor<V>{});
  const double t_hash = time_contractor("hash-chain", HashChainContractor<V>{});
  std::printf("\nhash-chain / bucket-sort time ratio: %.2fx\n\n", t_hash / t_bucket);

  // End-to-end phase breakdown (the 40-80% claim) of the driver, which
  // contracts by bucket sort.
  AgglomerationOptions opts;
  opts.min_coverage = 0.5;
  const auto r = agglomerate(CommunityGraph<V>(g), ModularityScorer{}, opts);
  double score_s = 0, match_s = 0, contract_s = 0;
  for (const auto& l : r.levels) {
    score_s += l.score_seconds;
    match_s += l.match_seconds;
    contract_s += l.contract_seconds;
  }
  std::printf("pipeline with bucket-sort : total %.4fs  (score %.4fs, match %.4fs, "
              "contract %.4fs = %.0f%% of phase time)\n",
              r.total_seconds, score_s, match_s, contract_s, 100.0 * r.contraction_fraction());
  std::printf("row,pipeline,bucket-sort,%.6f,%.4f\n", r.total_seconds,
              r.contraction_fraction());
  bench::report().add("pipeline:bucket-sort", omp_get_max_threads(), 0, r.total_seconds,
                      {{"contraction_fraction", r.contraction_fraction()}});
  std::printf("\npaper: contraction takes 40%%-80%% of execution time; the\n"
              "linked-list variant was 'infeasible' under OpenMP.\n");
  bench::write_report(cfg, "bench_ablation_contraction");
  return 0;
}
