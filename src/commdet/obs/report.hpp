// Machine-readable run reports: one versioned JSON document per run
// carrying the trace, merged metrics, per-level stats, platform info,
// resource high-waters, and the termination/degradation record — the
// format the BENCH_*.json trajectory and reproduce_paper.sh consume.
//
// Schema (version 1, "commdet-run-report"):
//
//   {
//     "schema": "commdet-run-report",
//     "schema_version": 1,
//     "kind": "detection" | "bench",
//     "threads": <omp max threads>,
//     "info": { <free-form string pairs: graph name, scorer, flags> },
//     "platform": { cpu_model, logical_cpus, omp_max_threads, cpu_mhz,
//                   total_ram_bytes, openmp_version,
//                   thp_mode } | null,
//                                // thp_mode: the host's transparent huge
//                                // page mode (added within schema version 1)
//     "graph": { num_vertices, num_edges, total_weight, self_loop_weight,
//                min_degree, max_degree, mean_degree, isolated_vertices,
//                degree_distribution: <distribution> | null } | null,
//     "result": { num_communities, modularity, coverage, total_seconds,
//                 num_levels, contraction_fraction, termination, degraded,
//                 error: {code, phase, detail} | null,
//                 checkpoint: { directory, last_generation,
//                               checkpoints_written, checkpoint_failures,
//                               resumed, resumed_from, resumed_generation,
//                               resumed_level,
//                               resumed_elapsed_seconds } | null,
//                 algorithm: { name, iterations, converged,
//                              refine } | null,
//                                // which backend produced the result
//                                // (added within schema version 1)
//                 community_size_distribution: <distribution> | null,
//                 levels: [ <level> ... ],
//                 failed_level: <level> | null },
//     "dynamic": { batches, updates_applied, updates_effective,
//                  rolled_back, halo_hops, apply_seconds,
//                  recompute_seconds, updates_per_second,
//                  batch_rows: [ { batch, deltas, effective, touched,
//                                  dirty, seed_communities, apply_seconds,
//                                  recompute_seconds, modularity, coverage,
//                                  num_communities, termination, degraded,
//                                  refresh_algorithm } ... ] } | null,
//                                // present only for --updates runs
//                                // (added within schema version 1)
//     "metrics": { "<name>": <int64>, ... },
//     "telemetry": <commdet-telemetry v1 object, see telemetry.hpp> | null,
//                                // present for live-telemetry runs
//                                // (added within schema version 1)
//     "resources": { max_rss_bytes, minor_faults, major_faults,
//                    voluntary_ctx_switches, involuntary_ctx_switches },
//     "trace": [ { id, parent, name, start_seconds, end_seconds, threads,
//                  error, attrs: {..} } ... ],
//     "rows": [ { series, threads, trial, seconds, values: {..} } ... ]
//                                // bench reports only; key order in the
//                                // document is not part of the schema
//   }
//
//   <level>: { level, nv_before, ne_before, positive_edges, max_score,
//              pairs_matched, match_sweeps, nv_after, ne_after, coverage,
//              modularity, score_seconds, match_seconds, contract_seconds }
//   <distribution>: { count, min, max, mean, p50, p90, p99,
//                     log2_buckets: [..] }
//
// Additions within version 1 are backward compatible (new keys only);
// renames or removals bump schema_version.  obs_test pins the keys.
#pragma once

#include <omp.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "commdet/core/clustering.hpp"
#include "commdet/graph/stats.hpp"
#include "commdet/obs/json.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/obs/telemetry.hpp"
#include "commdet/obs/probes.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/platform/platform_info.hpp"
#include "commdet/robust/error.hpp"
#include "commdet/util/types.hpp"

namespace commdet::obs {

inline constexpr std::string_view kRunReportSchema = "commdet-run-report";
inline constexpr int kRunReportSchemaVersion = 1;

/// One absorbed (or attempted) dynamic batch: sizes of the update and
/// its blast radius, phase timings, and the quality the re-agglomerated
/// clustering landed on.  Pure data, so the dyn/ subsystem can fill it
/// without the report layer depending on dyn/.
struct DynamicBatchRow {
  std::int64_t batch = 0;             // 0-based batch index
  std::int64_t deltas = 0;            // raw deltas submitted
  std::int64_t effective = 0;         // deltas that changed the graph
  std::int64_t touched = 0;           // vertices incident to a change
  std::int64_t dirty = 0;             // touched + k-hop halo (unseated)
  std::int64_t seed_communities = 0;  // warm-start community count
  double apply_seconds = 0.0;
  double recompute_seconds = 0.0;
  double modularity = 0.0;
  double coverage = 0.0;
  std::int64_t num_communities = 0;
  std::string termination;            // TerminationReason of the re-agglomeration
  bool degraded = false;
  bool kept_prior = false;  // re-agglomeration lost to the prior labels
  int halo_hops_used = 0;   // actual radius (adaptive halo picks per batch)
  bool refreshed = false;   // a quality-triggered full recompute followed
  double refresh_seconds = 0.0;
  std::string refresh_algorithm;  // DetectPlan name of that refresh; "" if none
};

/// Aggregate dynamic-update telemetry for one run (the "dynamic" run
/// report object).
struct DynamicRunStats {
  std::int64_t batches = 0;          // batches committed
  std::int64_t updates_applied = 0;  // raw deltas across committed batches
  std::int64_t updates_effective = 0;
  std::int64_t rolled_back = 0;      // failed batches (state unchanged)
  std::int64_t kept_prior = 0;       // batches where the prior labels won
  std::int64_t full_refreshes = 0;   // quality/cadence-triggered recomputes
  int halo_hops = 0;                 // configured radius (-1 = adaptive)
  double apply_seconds = 0.0;      // total graph-merge time
  double recompute_seconds = 0.0;  // total seeded re-agglomeration time
  std::vector<DynamicBatchRow> batch_rows;

  [[nodiscard]] double updates_per_second() const noexcept {
    const double t = apply_seconds + recompute_seconds;
    return t > 0.0 ? static_cast<double>(updates_applied) / t : 0.0;
  }
};

/// Optional report sections; null pointers are emitted as JSON null (or
/// an empty object for metrics/info), so every consumer sees every key.
struct RunReportInputs {
  const PlatformInfo* platform = nullptr;
  const GraphStats* graph = nullptr;
  const DistributionSummary* degree = nullptr;           // of the input graph
  const DistributionSummary* community_sizes = nullptr;  // of the final labels
  const Trace* trace = nullptr;
  const MetricsRegistry* metrics = nullptr;
  const ResourceSample* resources = nullptr;
  const DynamicRunStats* dynamic = nullptr;              // --updates runs only
  const TelemetrySnapshot* telemetry = nullptr;          // live-telemetry runs only
  std::vector<std::pair<std::string, std::string>> info;  // free-form strings
};

namespace detail {

inline void write_distribution(JsonWriter& w, const DistributionSummary& d) {
  w.begin_object();
  w.key("count");
  w.value(d.count);
  w.key("min");
  w.value(d.min);
  w.key("max");
  w.value(d.max);
  w.key("mean");
  w.value(d.mean);
  w.key("p50");
  w.value(d.p50);
  w.key("p90");
  w.value(d.p90);
  w.key("p99");
  w.value(d.p99);
  w.key("log2_buckets");
  w.begin_array();
  for (const auto b : d.log2_buckets) w.value(b);
  w.end_array();
  w.end_object();
}

inline void write_level(JsonWriter& w, const LevelStats& l) {
  w.begin_object();
  w.key("level");
  w.value(l.level);
  w.key("nv_before");
  w.value(l.nv_before);
  w.key("ne_before");
  w.value(static_cast<std::int64_t>(l.ne_before));
  w.key("positive_edges");
  w.value(static_cast<std::int64_t>(l.positive_edges));
  w.key("max_score");
  w.value(l.max_score);
  w.key("pairs_matched");
  w.value(l.pairs_matched);
  w.key("match_sweeps");
  w.value(l.match_sweeps);
  w.key("nv_after");
  w.value(l.nv_after);
  w.key("ne_after");
  w.value(static_cast<std::int64_t>(l.ne_after));
  w.key("coverage");
  w.value(l.coverage);
  w.key("modularity");
  w.value(l.modularity);
  w.key("score_seconds");
  w.value(l.score_seconds);
  w.key("match_seconds");
  w.value(l.match_seconds);
  w.key("contract_seconds");
  w.value(l.contract_seconds);
  w.end_object();
}

inline void write_platform(JsonWriter& w, const PlatformInfo* p) {
  if (p == nullptr) {
    w.null();
    return;
  }
  w.begin_object();
  w.key("cpu_model");
  w.value(p->cpu_model);
  w.key("logical_cpus");
  w.value(p->logical_cpus);
  w.key("omp_max_threads");
  w.value(p->omp_max_threads);
  w.key("cpu_mhz");
  w.value(p->cpu_mhz);
  w.key("total_ram_bytes");
  w.value(p->total_ram_bytes);
  w.key("openmp_version");
  w.value(p->openmp_version);
  w.key("thp_mode");
  w.value(p->thp_mode);
  w.end_object();
}

inline void write_resources(JsonWriter& w, const ResourceSample& r) {
  w.begin_object();
  w.key("max_rss_bytes");
  w.value(r.max_rss_bytes);
  w.key("minor_faults");
  w.value(r.minor_faults);
  w.key("major_faults");
  w.value(r.major_faults);
  w.key("voluntary_ctx_switches");
  w.value(r.voluntary_ctx_switches);
  w.key("involuntary_ctx_switches");
  w.value(r.involuntary_ctx_switches);
  w.end_object();
}

inline void write_trace(JsonWriter& w, const Trace& trace) {
  w.begin_array();
  for (const auto& s : trace.spans()) {
    w.begin_object();
    w.key("id");
    w.value(static_cast<std::int64_t>(s.id));
    w.key("parent");
    w.value(static_cast<std::int64_t>(s.parent));
    w.key("name");
    w.value(s.name);
    w.key("start_seconds");
    w.value(s.start_seconds);
    w.key("end_seconds");
    w.value(s.end_seconds);
    w.key("threads");
    w.value(s.threads);
    w.key("error");
    w.value(s.error);
    w.key("attrs");
    w.begin_object();
    for (const auto& a : s.attrs) {
      w.key(a.key);
      if (const auto* i = std::get_if<std::int64_t>(&a.value)) {
        w.value(*i);
      } else if (const auto* d = std::get_if<double>(&a.value)) {
        w.value(*d);
      } else {
        w.value(std::get<std::string>(a.value));
      }
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
}

inline void write_checkpoint(JsonWriter& w, const CheckpointProvenance& p) {
  w.begin_object();
  w.key("directory");
  w.value(p.directory);
  w.key("last_generation");
  w.value(p.last_generation);
  w.key("checkpoints_written");
  w.value(p.checkpoints_written);
  w.key("checkpoint_failures");
  w.value(p.checkpoint_failures);
  w.key("resumed");
  w.value(!p.resumed_from.empty());
  w.key("resumed_from");
  w.value(p.resumed_from);
  w.key("resumed_generation");
  w.value(p.resumed_generation);
  w.key("resumed_level");
  w.value(p.resumed_level);
  w.key("resumed_elapsed_seconds");
  w.value(p.resumed_elapsed_seconds);
  w.end_object();
}

inline void write_dynamic(JsonWriter& w, const DynamicRunStats* d) {
  if (d == nullptr) {
    w.null();
    return;
  }
  w.begin_object();
  w.key("batches");
  w.value(d->batches);
  w.key("updates_applied");
  w.value(d->updates_applied);
  w.key("updates_effective");
  w.value(d->updates_effective);
  w.key("rolled_back");
  w.value(d->rolled_back);
  w.key("kept_prior");
  w.value(d->kept_prior);
  w.key("full_refreshes");
  w.value(d->full_refreshes);
  w.key("halo_hops");
  w.value(d->halo_hops);
  w.key("apply_seconds");
  w.value(d->apply_seconds);
  w.key("recompute_seconds");
  w.value(d->recompute_seconds);
  w.key("updates_per_second");
  w.value(d->updates_per_second());
  w.key("batch_rows");
  w.begin_array();
  for (const auto& r : d->batch_rows) {
    w.begin_object();
    w.key("batch");
    w.value(r.batch);
    w.key("deltas");
    w.value(r.deltas);
    w.key("effective");
    w.value(r.effective);
    w.key("touched");
    w.value(r.touched);
    w.key("dirty");
    w.value(r.dirty);
    w.key("seed_communities");
    w.value(r.seed_communities);
    w.key("apply_seconds");
    w.value(r.apply_seconds);
    w.key("recompute_seconds");
    w.value(r.recompute_seconds);
    w.key("modularity");
    w.value(r.modularity);
    w.key("coverage");
    w.value(r.coverage);
    w.key("num_communities");
    w.value(r.num_communities);
    w.key("termination");
    w.value(r.termination);
    w.key("degraded");
    w.value(r.degraded);
    w.key("kept_prior");
    w.value(r.kept_prior);
    w.key("halo_hops_used");
    w.value(r.halo_hops_used);
    w.key("refreshed");
    w.value(r.refreshed);
    w.key("refresh_seconds");
    w.value(r.refresh_seconds);
    w.key("refresh_algorithm");
    w.value(r.refresh_algorithm);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

inline void write_error(JsonWriter& w, const Error& e) {
  w.begin_object();
  w.key("code");
  w.value(to_string(e.code));
  w.key("phase");
  w.value(to_string(e.phase));
  w.key("detail");
  w.value(e.detail);
  w.end_object();
}

/// Shared envelope head: callers continue the open top-level object.
inline void begin_report(JsonWriter& w, std::string_view kind,
                         const RunReportInputs& in) {
  w.begin_object();
  w.key("schema");
  w.value(kRunReportSchema);
  w.key("schema_version");
  w.value(kRunReportSchemaVersion);
  w.key("kind");
  w.value(kind);
  w.key("threads");
  w.value(omp_get_max_threads());
  w.key("info");
  w.begin_object();
  for (const auto& [k, v] : in.info) {
    w.key(k);
    w.value(v);
  }
  w.end_object();
  w.key("platform");
  write_platform(w, in.platform);
}

/// Shared envelope tail: metrics, telemetry, resources, trace; closes
/// the object.
inline void end_report(JsonWriter& w, const RunReportInputs& in) {
  w.key("metrics");
  w.begin_object();
  if (in.metrics != nullptr) {
    for (const auto& [name, value] : in.metrics->snapshot()) {
      w.key(name);
      w.value(value);
    }
  }
  w.end_object();
  // Additive in v1: the full "commdet-telemetry" object for runs that
  // collected live telemetry (histograms, live gauges, event cursor).
  w.key("telemetry");
  if (in.telemetry != nullptr) {
    write_telemetry(w, *in.telemetry);
  } else {
    w.null();
  }
  w.key("resources");
  if (in.resources != nullptr) {
    write_resources(w, *in.resources);
  } else {
    const ResourceSample now = sample_resources();
    write_resources(w, now);
  }
  w.key("trace");
  if (in.trace != nullptr) {
    write_trace(w, *in.trace);
  } else {
    w.begin_array();
    w.end_array();
  }
  w.end_object();
}

}  // namespace detail

/// Serializes one detection run into the versioned report document.
template <VertexId V>
[[nodiscard]] std::string run_report_json(const Clustering<V>& c,
                                          const RunReportInputs& in = {}) {
  JsonWriter w;
  detail::begin_report(w, "detection", in);

  w.key("graph");
  if (in.graph != nullptr) {
    w.begin_object();
    w.key("num_vertices");
    w.value(in.graph->num_vertices);
    w.key("num_edges");
    w.value(in.graph->num_edges);
    w.key("total_weight");
    w.value(static_cast<std::int64_t>(in.graph->total_weight));
    w.key("self_loop_weight");
    w.value(static_cast<std::int64_t>(in.graph->self_loop_weight));
    w.key("min_degree");
    w.value(in.graph->min_degree);
    w.key("max_degree");
    w.value(in.graph->max_degree);
    w.key("mean_degree");
    w.value(in.graph->mean_degree);
    w.key("isolated_vertices");
    w.value(in.graph->isolated_vertices);
    w.key("degree_distribution");
    if (in.degree != nullptr) {
      detail::write_distribution(w, *in.degree);
    } else {
      w.null();
    }
    w.end_object();
  } else {
    w.null();
  }

  w.key("result");
  w.begin_object();
  w.key("num_communities");
  w.value(c.num_communities);
  w.key("modularity");
  w.value(c.final_modularity);
  w.key("coverage");
  w.value(c.final_coverage);
  w.key("total_seconds");
  w.value(c.total_seconds);
  w.key("num_levels");
  w.value(c.num_levels());
  w.key("contraction_fraction");
  w.value(c.contraction_fraction());
  w.key("termination");
  w.value(to_string(c.reason));
  w.key("degraded");
  w.value(is_degraded(c.reason));
  w.key("error");
  if (c.error.has_value()) {
    detail::write_error(w, *c.error);
  } else {
    w.null();
  }
  w.key("checkpoint");
  if (c.checkpoint.has_value()) {
    detail::write_checkpoint(w, *c.checkpoint);
  } else {
    w.null();
  }
  // Additive in v1: which backend produced the result.
  w.key("algorithm");
  if (c.algorithm.has_value()) {
    w.begin_object();
    w.key("name");
    w.value(c.algorithm->name);
    w.key("iterations");
    w.value(c.algorithm->iterations);
    w.key("converged");
    w.value(c.algorithm->converged);
    w.key("refine");
    w.value(c.algorithm->refine);
    w.end_object();
  } else {
    w.null();
  }
  w.key("community_size_distribution");
  if (in.community_sizes != nullptr) {
    detail::write_distribution(w, *in.community_sizes);
  } else {
    w.null();
  }
  w.key("levels");
  w.begin_array();
  for (const auto& l : c.levels) detail::write_level(w, l);
  w.end_array();
  w.key("failed_level");
  if (c.failed_level.has_value()) {
    detail::write_level(w, *c.failed_level);
  } else {
    w.null();
  }
  w.end_object();

  w.key("dynamic");
  detail::write_dynamic(w, in.dynamic);

  detail::end_report(w, in);
  return w.take();
}

/// Serializes one DynamicRunStats as a standalone JSON object — exactly
/// the run report's "dynamic" section.  The streaming service's STATS
/// verb answers with this.
[[nodiscard]] inline std::string dynamic_stats_json(const DynamicRunStats& d) {
  JsonWriter w;
  detail::write_dynamic(w, &d);
  return w.take();
}

/// One benchmark measurement: a (series, threads, trial) point with its
/// wall time and any extra named values (speedup, modularity, ...).
struct BenchRow {
  std::string series;
  int threads = 0;
  int trial = 0;
  double seconds = 0.0;
  std::vector<std::pair<std::string, double>> values;
};

/// Serializes a benchmark run into the same versioned envelope as the
/// detection report ("kind": "bench"); graph/result are null and the
/// measurements land in "rows".
[[nodiscard]] inline std::string bench_report_json(const std::vector<BenchRow>& rows,
                                                   const RunReportInputs& in = {}) {
  JsonWriter w;
  detail::begin_report(w, "bench", in);
  w.key("graph");
  w.null();
  w.key("result");
  w.null();
  w.key("rows");
  w.begin_array();
  for (const auto& r : rows) {
    w.begin_object();
    w.key("series");
    w.value(r.series);
    w.key("threads");
    w.value(r.threads);
    w.key("trial");
    w.value(r.trial);
    w.key("seconds");
    w.value(r.seconds);
    w.key("values");
    w.begin_object();
    for (const auto& [k, v] : r.values) {
      w.key(k);
      w.value(v);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  detail::end_report(w, in);
  return w.take();
}

/// CSV export of the per-level table (paper Tables 2-3 shape).  Includes
/// the failed partial level, marked in the final column.
template <VertexId V>
[[nodiscard]] std::string levels_csv(const Clustering<V>& c) {
  std::string out =
      "level,nv_before,ne_before,positive_edges,max_score,pairs_matched,"
      "match_sweeps,nv_after,ne_after,coverage,modularity,score_seconds,"
      "match_seconds,contract_seconds,status\n";
  char buf[512];
  const auto row = [&](const LevelStats& l, const char* status) {
    std::snprintf(buf, sizeof buf,
                  "%d,%lld,%lld,%lld,%.17g,%lld,%d,%lld,%lld,%.17g,%.17g,"
                  "%.17g,%.17g,%.17g,%s\n",
                  l.level, static_cast<long long>(l.nv_before),
                  static_cast<long long>(l.ne_before),
                  static_cast<long long>(l.positive_edges), l.max_score,
                  static_cast<long long>(l.pairs_matched), l.match_sweeps,
                  static_cast<long long>(l.nv_after),
                  static_cast<long long>(l.ne_after), l.coverage, l.modularity,
                  l.score_seconds, l.match_seconds, l.contract_seconds, status);
    out += buf;
  };
  for (const auto& l : c.levels) row(l, "completed");
  if (c.failed_level.has_value()) row(*c.failed_level, "failed");
  return out;
}

/// Writes `content` to `path`, throwing a structured kIoWrite error on
/// failure (consistent with the io/ layer's contract).
inline void write_text_file(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw_error(ErrorCode::kIoWrite, Phase::kUnknown, "cannot create " + path);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.flush();
  if (!out) throw_error(ErrorCode::kIoWrite, Phase::kUnknown, "write failed: " + path);
}

}  // namespace commdet::obs
