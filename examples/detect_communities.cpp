// Command-line community detector: the tool a downstream user runs on
// their own graph files.
//
//   $ ./detect_communities <graph-file> [options]
//
// Formats are chosen by extension: .txt/.el (edge list), .graph (METIS),
// .mtx (Matrix Market), .bin (commdet binary).  Options:
//   --metric modularity|conductance|heavy   scoring metric
//   --algo agglo|lp-sync|lp-async|louvain|agglo-sharded
//                       detection backend (DetectPlan; default agglo = the
//                       paper's agglomeration; lp-* = parallel CDLP label
//                       propagation; louvain = parallel Louvain with
//                       local-move refinement; agglo-sharded = the
//                       agglomeration over a K-way partitioned graph)
//   --shards <K>        shard count for agglo-sharded (implies the
//                       sharded backend when --algo is default/agglo)
//   --spill-dir <dir>   out-of-core mode: spill inactive shard blocks to
//                       snapshot files under <dir> so one block is
//                       resident per pass (implies agglo-sharded)
//   --coverage <x>      stop at coverage >= x (paper's experiments: 0.5)
//   --min-communities <k>
//   --max-size <n>      maximum original vertices per community
//   --matcher list|sweep|greedy
//   --threads <t>       OpenMP threads
//   --out <file>        write "vertex community" lines
//   --largest-component run on the largest connected component only
//   --max-seconds / --max-memory-mb / --max-stalled-levels / --grace-levels
//                       run budget: degrade to the best clustering so far
//                       instead of running without bound
//   --checkpoint-dir <dir>   crash-safe checkpointing: snapshot the
//                       resumable state into <dir> at level boundaries
//                       (and on budget exhaustion or SIGINT/SIGTERM)
//   --checkpoint-every <k>   checkpoint cadence in levels (default 1)
//   --checkpoint-keep <k>    generations retained (default 2)
//   --resume            continue from the newest valid checkpoint in
//                       --checkpoint-dir (falls back to a fresh run when
//                       none exists); pass the same detection flags
//   --updates <file>    dynamic mode: after the initial detection,
//                       stream edge deltas ("+ u v [w]" / "- u v" /
//                       "= u v w" lines) through seeded re-agglomeration
//   --batch-size <n>    deltas per batch in dynamic mode (default 1024,
//                       0 = one batch for the whole file)
//   --halo <k>|auto     unseat k hops around updated edges (default 1);
//                       "auto" picks the radius per batch from the
//                       perturbation's cut-weight share
//   --refresh-algo agglo|lp-sync|lp-async|louvain
//                       backend for cadence/quality-triggered refreshes
//                       in dynamic mode (default agglo)
//   --report <file>     machine-readable JSON run report (schema
//                       "commdet-run-report" v1: trace, metrics, levels,
//                       platform, resources, checkpoint provenance;
//                       dynamic runs add the "dynamic" object)
//   --report-csv <file> per-level CSV table
//   --trace             print the span tree to stderr after the run
//
// Exit codes: 0 success (including degraded-but-returned runs), 2 usage,
// 1 unstructured exception, and exit_code_for() categories (3..9) for
// structured errors — which are also printed to stderr as one JSON line.
#include <omp.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "commdet/cc/connected_components.hpp"
#include "commdet/core/detect.hpp"
#include "commdet/core/metrics.hpp"
#include "commdet/dyn/dynamic_communities.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/graph/delta.hpp"
#include "commdet/io/delta_text.hpp"
#include "commdet/graph/stats.hpp"
#include "commdet/io/binary.hpp"
#include "commdet/io/edge_list_text.hpp"
#include "commdet/io/matrix_market.hpp"
#include "commdet/io/metis.hpp"
#include "commdet/obs/json.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/obs/probes.hpp"
#include "commdet/obs/report.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/platform/platform_info.hpp"
#include "commdet/robust/checkpoint.hpp"
#include "commdet/util/rng.hpp"

namespace {

using V = std::int64_t;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

commdet::EdgeList<V> load(const std::string& path) {
  if (ends_with(path, ".graph")) return commdet::read_metis<V>(path);
  if (ends_with(path, ".mtx")) return commdet::read_matrix_market<V>(path);
  if (ends_with(path, ".bin")) return commdet::read_edge_list_binary<V>(path);
  return commdet::read_edge_list_text<V>(path);
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: detect_communities <graph-file> [--metric modularity|conductance|heavy|resolution]\n"
               "       [--algo agglo|lp-sync|lp-async|louvain|agglo-sharded]\n"
               "       [--shards K] [--spill-dir d]\n"
               "       [--coverage x] [--min-communities k] [--max-size n]\n"
               "       [--matcher list|sweep|greedy]\n"
               "       [--refine flat|vcycle] [--gamma g] [--threads t] [--out file]\n"
               "       [--largest-component] [--max-seconds s] [--max-memory-mb m]\n"
               "       [--max-stalled-levels k] [--grace-levels k]\n"
               "       [--checkpoint-dir d] [--checkpoint-every k] [--checkpoint-keep k]\n"
               "       [--resume]\n"
               "       [--updates deltas.txt] [--batch-size n] [--halo k|auto]\n"
               "       [--refresh-margin x] [--refresh-every n]\n"
               "       [--refresh-algo agglo|lp-sync|lp-async|louvain]\n"
               "       [--report file.json] [--report-csv file.csv] [--trace]\n");
  std::exit(2);
}

/// First SIGINT/SIGTERM requests a cooperative stop (the driver
/// checkpoints and returns best-so-far); restoring the default action
/// means a second signal kills the process the normal way.
extern "C" void on_stop_signal(int sig) {
  commdet::request_interrupt();
  std::signal(sig, SIG_DFL);
}

/// Emits a structured error to stderr as one JSON line and returns the
/// category exit code, so supervisors can branch on $? or parse stderr.
int report_structured_error(const commdet::Error& err, int exit_code) {
  commdet::obs::JsonWriter w;
  w.begin_object();
  w.key("error");
  w.begin_object();
  w.key("code");
  w.value(commdet::to_string(err.code));
  w.key("phase");
  w.value(commdet::to_string(err.phase));
  w.key("detail");
  w.value(err.detail);
  w.key("exit_code");
  w.value(exit_code);
  w.end_object();
  w.end_object();
  std::fprintf(stderr, "%s\n", w.take().c_str());
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  std::string path = argv[1];
  std::string metric = "modularity";
  std::string out_path;
  std::string report_path;
  std::string report_csv_path;
  std::string updates_path;
  std::int64_t batch_size = 1024;
  int halo_hops = 1;
  double refresh_margin = 0.0;
  int refresh_every = 0;
  bool print_trace = false;
  bool use_largest_component = false;
  bool resume = false;
  int shards = 0;            // > 0: agglo-sharded with this K
  std::string spill_dir;     // non-empty: out-of-core (implies sharded)
  commdet::DetectPlan plan;          // default: agglomerative
  commdet::DetectPlan refresh_plan;  // dynamic-mode refresh backend
  commdet::DetectOptions dopts;
  commdet::AgglomerationOptions& opts = dopts.agglomeration;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--metric") {
      metric = next();
    } else if (arg == "--algo") {
      const auto p = commdet::DetectPlan::FromName(next());
      if (!p.has_value()) usage();
      plan = *p;
    } else if (arg == "--shards") {
      shards = std::stoi(next());
    } else if (arg == "--spill-dir") {
      spill_dir = next();
    } else if (arg == "--refresh-algo") {
      const auto p = commdet::DetectPlan::FromName(next());
      if (!p.has_value()) usage();
      refresh_plan = *p;
    } else if (arg == "--coverage") {
      opts.min_coverage = std::stod(next());
    } else if (arg == "--min-communities") {
      opts.min_communities = std::stoll(next());
    } else if (arg == "--max-size") {
      opts.max_community_size = std::stoll(next());
    } else if (arg == "--matcher") {
      const auto m = next();
      if (m == "list") opts.matcher = commdet::MatcherKind::kUnmatchedList;
      else if (m == "sweep") opts.matcher = commdet::MatcherKind::kEdgeSweep;
      else if (m == "greedy") opts.matcher = commdet::MatcherKind::kSequentialGreedy;
      else usage();
    } else if (arg == "--refine") {
      const auto mode = next();
      if (mode == "flat") dopts.refine_mode = commdet::DetectOptions::RefineMode::kFlat;
      else if (mode == "vcycle") dopts.refine_mode = commdet::DetectOptions::RefineMode::kVCycle;
      else usage();
    } else if (arg == "--gamma") {
      dopts.resolution_gamma = std::stod(next());
    } else if (arg == "--threads") {
      omp_set_num_threads(std::stoi(next()));
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--largest-component") {
      use_largest_component = true;
    } else if (arg == "--max-seconds") {
      opts.budget.max_seconds = std::stod(next());
    } else if (arg == "--max-memory-mb") {
      opts.budget.max_memory_bytes = std::stoll(next()) << 20;
    } else if (arg == "--max-stalled-levels") {
      opts.budget.max_stalled_levels = std::stoi(next());
    } else if (arg == "--grace-levels") {
      opts.budget.grace_levels = std::stoi(next());
    } else if (arg == "--checkpoint-dir") {
      opts.checkpoint.directory = next();
    } else if (arg == "--checkpoint-every") {
      opts.checkpoint.every_levels = std::stoi(next());
    } else if (arg == "--checkpoint-keep") {
      opts.checkpoint.keep_generations = std::stoi(next());
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--updates") {
      updates_path = next();
    } else if (arg == "--batch-size") {
      batch_size = std::stoll(next());
    } else if (arg == "--halo") {
      const auto h = next();
      halo_hops = h == "auto" ? -1 : std::stoi(h);
    } else if (arg == "--refresh-margin") {
      refresh_margin = std::stod(next());
    } else if (arg == "--refresh-every") {
      refresh_every = std::stoi(next());
    } else if (arg == "--report") {
      report_path = next();
    } else if (arg == "--report-csv") {
      report_csv_path = next();
    } else if (arg == "--trace") {
      print_trace = true;
    } else {
      usage();
    }
  }
  if (resume && !opts.checkpoint.enabled()) {
    std::fprintf(stderr, "error: --resume requires --checkpoint-dir\n");
    return 2;
  }
  // --shards / --spill-dir select (or configure) the sharded backend.
  if (shards > 0 || !spill_dir.empty()) {
    const bool agglo_family =
        plan.algorithm() == commdet::AlgorithmKind::kAgglomerative ||
        plan.algorithm() == commdet::AlgorithmKind::kAggloSharded;
    if (!agglo_family) {
      std::fprintf(stderr, "error: --shards/--spill-dir require --algo agglo-sharded\n");
      return 2;
    }
    commdet::ShardOptions sh = plan.algorithm() == commdet::AlgorithmKind::kAggloSharded
                                   ? plan.shard()
                                   : commdet::ShardOptions{};
    if (shards > 0) sh.shards = shards;
    if (!spill_dir.empty()) {
      sh.spill = true;
      sh.spill_dir = spill_dir;
    }
    plan = commdet::DetectPlan::AggloSharded(sh);
  }

  // Observability is opt-in: with no report/trace flag the sinks stay
  // uninstalled and the instrumented kernels run at full speed.
  const bool observing = print_trace || !report_path.empty() || !report_csv_path.empty();
  commdet::obs::Trace trace;
  commdet::obs::MetricsRegistry metrics;
  std::optional<commdet::obs::TraceSession> trace_session;
  std::optional<commdet::obs::MetricsSession> metrics_session;
  if (observing) {
    trace_session.emplace(trace);
    metrics_session.emplace(metrics);
  }
  const commdet::obs::ResourceSample resources_begin = commdet::obs::sample_resources();

  try {
    auto edges = load(path);
    if (use_largest_component) edges = commdet::largest_component(edges);
    const auto g = commdet::build_community_graph(edges);
    const auto stats = commdet::graph_stats(g);
    std::printf("graph: %lld vertices, %lld unique edges, total weight %lld\n",
                static_cast<long long>(stats.num_vertices),
                static_cast<long long>(stats.num_edges),
                static_cast<long long>(stats.total_weight));

    if (metric == "modularity") dopts.scorer = commdet::ScorerKind::kModularity;
    else if (metric == "conductance") dopts.scorer = commdet::ScorerKind::kConductance;
    else if (metric == "heavy") dopts.scorer = commdet::ScorerKind::kHeavyEdge;
    else if (metric == "resolution") dopts.scorer = commdet::ScorerKind::kResolutionModularity;
    else usage();

    if (opts.checkpoint.enabled()) {
      // Fold the input graph's identity into the configuration
      // fingerprint so a checkpoint cannot silently resume against a
      // different graph, and arm cooperative shutdown: the first
      // SIGINT/SIGTERM checkpoints and exits cleanly with the report.
      std::uint64_t salt = commdet::mix64(0x636c69636b707473ULL ^
                                          static_cast<std::uint64_t>(stats.num_vertices));
      salt = commdet::mix64(salt ^ static_cast<std::uint64_t>(stats.num_edges));
      salt = commdet::mix64(salt ^ static_cast<std::uint64_t>(stats.total_weight));
      opts.checkpoint.config_salt = salt;
      std::signal(SIGINT, on_stop_signal);
      std::signal(SIGTERM, on_stop_signal);
    }

    commdet::Clustering<V> result;
    if (resume) {
      auto ckpt = commdet::load_latest_checkpoint<V>(opts.checkpoint.directory);
      if (ckpt.has_value()) {
        std::printf("resuming from %s (level %d, %.3fs of prior work)\n",
                    ckpt->source_path.c_str(), ckpt->next_level, ckpt->elapsed_seconds);
        result = commdet::resume_detect(g, std::move(*ckpt), dopts);
      } else {
        std::fprintf(stderr,
                     "warning: no valid checkpoint in %s; starting a fresh run\n",
                     opts.checkpoint.directory.c_str());
        result = commdet::detect_communities(g, plan, dopts);
      }
    } else {
      result = commdet::detect_communities(g, plan, dopts);
    }

    std::printf("communities: %lld   modularity: %.4f   coverage: %.4f\n",
                static_cast<long long>(result.num_communities), result.final_modularity,
                result.final_coverage);
    std::printf("levels: %d   time: %.3fs   contraction share of time: %.0f%%\n",
                result.num_levels(), result.total_seconds,
                100.0 * result.contraction_fraction());
    std::printf("termination: %s\n", std::string(commdet::to_string(result.reason)).c_str());
    if (result.algorithm.has_value())
      std::printf("algorithm: %s (%d %s%s)\n", result.algorithm->name.c_str(),
                  result.algorithm->iterations,
                  result.algorithm->name.rfind("lp-", 0) == 0 ? "sweeps" : "levels",
                  result.algorithm->converged ? ", converged" : "");
    if (commdet::is_degraded(result.reason) && result.error)
      std::printf("degraded run (best clustering so far returned): %s\n",
                  result.error->message().c_str());
    if (result.checkpoint.has_value() && result.checkpoint->last_generation >= 0)
      std::printf("checkpoint: generation %lld in %s (resume with --resume)\n",
                  static_cast<long long>(result.checkpoint->last_generation),
                  result.checkpoint->directory.c_str());
    for (const auto& l : result.levels)
      std::printf("  level %2d: %9lld -> %9lld communities, %9lld edges, "
                  "coverage %.3f, modularity %.4f\n",
                  l.level, static_cast<long long>(l.nv_before),
                  static_cast<long long>(l.nv_after), static_cast<long long>(l.ne_before),
                  l.coverage, l.modularity);

    // Dynamic mode: adopt the detected clustering and stream the delta
    // file through seeded re-agglomeration, batch by batch.  A failed
    // batch rolls back and the stream continues with the next one.
    std::optional<commdet::obs::DynamicRunStats> dyn_stats;
    if (!updates_path.empty()) {
      commdet::DynamicOptions dyn_opts;
      dyn_opts.detect = dopts;
      dyn_opts.halo_hops = halo_hops;
      dyn_opts.refresh_margin = refresh_margin;
      dyn_opts.refresh_every = refresh_every;
      dyn_opts.refresh_plan = refresh_plan;
      commdet::DynamicCommunities<V> dyn(commdet::CommunityGraph<V>(g), result, dyn_opts);
      const auto deltas = commdet::read_delta_text<V>(updates_path);
      const auto total = static_cast<std::int64_t>(deltas.size());
      const std::int64_t step =
          batch_size > 0 ? batch_size : std::max<std::int64_t>(total, 1);
      if (halo_hops < 0)
        std::printf("dynamic: %lld deltas from %s in batches of %lld (halo auto)\n",
                    static_cast<long long>(total), updates_path.c_str(),
                    static_cast<long long>(step));
      else
        std::printf("dynamic: %lld deltas from %s in batches of %lld (halo %d)\n",
                    static_cast<long long>(total), updates_path.c_str(),
                    static_cast<long long>(step), halo_hops);
      for (std::int64_t off = 0; off < total; off += step) {
        commdet::DeltaBatch<V> batch;
        batch.deltas.assign(deltas.deltas.begin() + off,
                            deltas.deltas.begin() + std::min(total, off + step));
        const auto row = dyn.apply_batch(batch);
        if (!row.has_value()) {
          std::fprintf(stderr, "batch at offset %lld failed (rolled back): %s\n",
                       static_cast<long long>(off), row.error().message().c_str());
          continue;
        }
        std::printf("  batch %3lld: %6lld deltas (%lld effective), "
                    "%.3fs apply + %.3fs recompute, %lld communities, modularity %.4f\n",
                    static_cast<long long>(row->batch),
                    static_cast<long long>(row->deltas),
                    static_cast<long long>(row->effective), row->apply_seconds,
                    row->recompute_seconds, static_cast<long long>(row->num_communities),
                    row->modularity);
      }
      result = dyn.clustering();
      dyn_stats = dyn.stats();
      std::printf("dynamic final: %lld batches (%lld rolled back), "
                  "%lld communities, modularity %.4f, %.0f updates/s\n",
                  static_cast<long long>(dyn_stats->batches),
                  static_cast<long long>(dyn_stats->rolled_back),
                  static_cast<long long>(result.num_communities),
                  result.final_modularity, dyn_stats->updates_per_second());
    }

    if (!out_path.empty()) {
      std::ofstream out(out_path);
      if (!out) throw std::runtime_error("cannot write " + out_path);
      for (std::size_t v = 0; v < result.community.size(); ++v)
        out << v << ' ' << static_cast<long long>(result.community[v]) << '\n';
      std::printf("assignment written to %s\n", out_path.c_str());
    }

    if (!report_path.empty()) {
      const auto platform = commdet::detect_platform();
      const auto degree = commdet::degree_distribution(g);
      const auto sizes = commdet::community_size_distribution(
          std::span<const V>(result.community.data(), result.community.size()),
          result.num_communities);
      const auto resources =
          commdet::obs::resource_delta(resources_begin, commdet::obs::sample_resources());
      commdet::obs::RunReportInputs inputs;
      inputs.platform = &platform;
      inputs.graph = &stats;
      inputs.degree = &degree;
      inputs.community_sizes = &sizes;
      inputs.trace = &trace;
      inputs.metrics = &metrics;
      inputs.resources = &resources;
      inputs.info = {{"tool", "detect_communities"},
                     {"input", path},
                     {"metric", metric},
                     {"algorithm", std::string(plan.name())}};
      if (opts.checkpoint.enabled())
        inputs.info.emplace_back("checkpoint_dir", opts.checkpoint.directory);
      if (dyn_stats.has_value()) {
        inputs.dynamic = &*dyn_stats;
        inputs.info.emplace_back("updates", updates_path);
      }
      commdet::obs::write_text_file(report_path,
                                    commdet::obs::run_report_json(result, inputs));
      std::printf("run report written to %s\n", report_path.c_str());
    }
    if (!report_csv_path.empty()) {
      commdet::obs::write_text_file(report_csv_path, commdet::obs::levels_csv(result));
      std::printf("per-level CSV written to %s\n", report_csv_path.c_str());
    }
    if (print_trace)
      std::fprintf(stderr, "%s", commdet::obs::format_trace(trace).c_str());
  } catch (const commdet::CommdetError& e) {
    return report_structured_error(e.error(), commdet::exit_code_for(e.code()));
  } catch (const std::exception& e) {
    return report_structured_error(
        commdet::Error{commdet::ErrorCode::kInternal, commdet::Phase::kUnknown, e.what()}, 1);
  }
  return 0;
}
