// Umbrella header: the full public API of the commdet library.
//
// commdet reproduces "Scalable Multi-threaded Community Detection in
// Social Networks" (Riedy, Bader, Meyerhenke; IPDPSW 2012): parallel
// agglomerative community detection by edge scoring, greedy heavy
// maximal matching, and community-graph contraction, on OpenMP.
//
// Typical use:
//
//   #include "commdet/commdet.hpp"
//
//   commdet::EdgeList<std::int32_t> edges = commdet::read_edge_list_text<...>(...);
//   auto clustering = commdet::agglomerate(edges, commdet::ModularityScorer{});
//   // clustering.community[v] is v's community.
//
// Module map (headers marked "direct" are references for tests and
// benches; include them by path, this header leaves them out):
//   util/      parallel primitives (prefix sum, sort, compact, RNG, locks)
//   graph/     bucketed community graph, CSR view, builder, validation,
//              statistics, triangle counting
//   gen/       R-MAT, planted partition, Erdős–Rényi, Watts–Strogatz,
//              Barabási–Albert, deterministic shapes
//   io/        edge-list text, binary snapshots, METIS, Matrix Market,
//              partition files
//   robust/    structured errors + Expected, fault injection, run
//              budgets, input sanitization
//   obs/       span tracer, sharded metrics, resource probes, JSON/CSV
//              run reports
//   cc/        connected components, largest component, BFS
//   score/     modularity / conductance / heavy-edge / resolution scorers
//   match/     unmatched-list (paper) and edge-sweep (baseline) matchers;
//              sequential greedy reference (direct)
//   contract/  bucket-sort contraction (paper) over the label-keyed
//              kernel; hash-chain reference (direct)
//   core/      the agglomerative driver, metrics, hierarchy, extraction
//   algo/      pluggable detection backends behind DetectPlan: parallel
//              CDLP (sync/async label propagation) and parallel Louvain
//   dyn/       batched edge updates with seeded (warm-start)
//              re-agglomeration over a maintained clustering
//   refine/    parallel local-move refinement (the paper's future work)
//   baseline/  sequential CNM reference (direct)
//   platform/  host characteristics detection
#pragma once

#include "commdet/algo/cdlp.hpp"
#include "commdet/algo/louvain.hpp"
#include "commdet/algo/plan.hpp"
#include "commdet/cc/bfs.hpp"
#include "commdet/cc/connected_components.hpp"
#include "commdet/contract/bucket_sort_contractor.hpp"
#include "commdet/contract/label_contractor.hpp"
#include "commdet/core/agglomerate.hpp"
#include "commdet/core/clustering.hpp"
#include "commdet/core/detect.hpp"
#include "commdet/core/extraction.hpp"
#include "commdet/core/metrics.hpp"
#include "commdet/core/options.hpp"
#include "commdet/dyn/dynamic_communities.hpp"
#include "commdet/dyn/seeded.hpp"
#include "commdet/gen/barabasi_albert.hpp"
#include "commdet/gen/erdos_renyi.hpp"
#include "commdet/gen/planted_partition.hpp"
#include "commdet/gen/rmat.hpp"
#include "commdet/gen/simple_graphs.hpp"
#include "commdet/gen/watts_strogatz.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/graph/community_graph.hpp"
#include "commdet/graph/csr.hpp"
#include "commdet/graph/delta.hpp"
#include "commdet/graph/edge_list.hpp"
#include "commdet/graph/stats.hpp"
#include "commdet/graph/triangles.hpp"
#include "commdet/graph/validate.hpp"
#include "commdet/io/binary.hpp"
#include "commdet/io/delta_text.hpp"
#include "commdet/io/edge_list_text.hpp"
#include "commdet/io/matrix_market.hpp"
#include "commdet/io/parallel_edge_list.hpp"
#include "commdet/io/metis.hpp"
#include "commdet/io/partition.hpp"
#include "commdet/io/snapshot.hpp"
#include "commdet/match/edge_sweep_matcher.hpp"
#include "commdet/obs/json.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/obs/probes.hpp"
#include "commdet/obs/report.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/match/matching.hpp"
#include "commdet/match/unmatched_list_matcher.hpp"
#include "commdet/platform/platform_info.hpp"
#include "commdet/refine/multilevel.hpp"
#include "commdet/refine/refine.hpp"
#include "commdet/robust/budget.hpp"
#include "commdet/robust/checkpoint.hpp"
#include "commdet/robust/error.hpp"
#include "commdet/robust/expected.hpp"
#include "commdet/robust/fault_injection.hpp"
#include "commdet/robust/sanitize.hpp"
#include "commdet/score/score_edges.hpp"
#include "commdet/score/scorers.hpp"
#include "commdet/util/atomics.hpp"
#include "commdet/util/compact.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/prefix_sum.hpp"
#include "commdet/util/rng.hpp"
#include "commdet/util/sort.hpp"
#include "commdet/util/spinlock.hpp"
#include "commdet/util/timer.hpp"
#include "commdet/util/types.hpp"
