// perfbench: the repository benchmark.  One invocation runs one workload
// and prints its metrics; perfbench/run.py builds this program and is the
// command to use (see perfbench/README.md).
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --out-dir D
//
// Workloads (the seed is the only source of input variation; the library
// only ever receives the generated graphs and delta lines):
//   rmat20          R-MAT scale 20, ef 8, largest component; default
//                   agglomeration (coverage >= 0.5) on 4 threads.
//   sbm20           planted partition, 2^20 vertices in 16384 blocks; the
//                   same detection on 4 threads, then on 1 thread.
//   serve18         in-process CommunityService over R-MAT scale 18 (halo
//                   0, one refinement round): one closed-loop writer
//                   Session (2000 delta lines drawn from the input's R-MAT
//                   model, then COMMIT) and one open-loop reader Session
//                   (GET/COMMUNITY/QUALITY).
//   rmat18-sharded  R-MAT scale 18, DetectPlan::AggloSharded K=4 in memory.
//
// --trace 0 measures the end-to-end metrics with tracing and metrics off.
// --trace 1 is the separate traced run: it installs an obs::Trace and a
// metrics registry, records a span around every benchmark-side call into
// the library, reads the per-level LevelStats, the dynamic batch rows and
// the service telemetry, probes the level-1 primitives one by one, runs a
// STREAM-style triad, and writes the spans as Chrome trace-event JSON.
//
// Timed samples record the host's steal share, and throughput is the
// median of the least-stolen half (quiet_median): on a shared VM other
// tenants' steal stretches a 4-thread run several times its own share.
//
// Every run checks its outputs (dense labels covering every vertex,
// modularity re-evaluated from scratch, published snapshot == maintained
// clustering, ...).  The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// and the exit code is non-zero when any check failed.
#include <malloc.h>
#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "commdet/cc/connected_components.hpp"
#include "commdet/contract/bucket_sort_contractor.hpp"
#include "commdet/contract/label_contractor.hpp"
#include "commdet/contract/relabel.hpp"
#include "commdet/core/detect.hpp"
#include "commdet/core/metrics.hpp"
#include "commdet/gen/planted_partition.hpp"
#include "commdet/gen/rmat.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/io/delta_text.hpp"
#include "commdet/match/matching.hpp"
#include "commdet/match/unmatched_list_matcher.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/obs/probes.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/score/score_edges.hpp"
#include "commdet/serve/service.hpp"
#include "commdet/serve/session.hpp"
#include "commdet/shard/sharded_graph.hpp"
#include "commdet/util/rng.hpp"
#include "commdet/util/timer.hpp"

namespace {

using namespace commdet;
using V = std::int32_t;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- workloads

enum class Kind { kDetect, kServe, kSharded };

struct Workload {
  const char* name;
  Kind kind;
  bool sbm;     // planted partition instead of R-MAT
  int scale;    // log2 of the generated vertex count
  int threads;  // OpenMP team size; serve18 leaves one core to its reader
};

constexpr Workload kWorkloads[] = {
    {"rmat20", Kind::kDetect, false, 20, 4},
    {"sbm20", Kind::kDetect, true, 20, 4},
    {"serve18", Kind::kServe, false, 18, 3},
    {"rmat18-sharded", Kind::kSharded, false, 18, 4},
};

constexpr int kEdgeFactor = 8;
constexpr std::int64_t kSbmBlocks = 16384;
constexpr int kShards = 4;
constexpr int kBatchDeltas = 2000;   // delta lines per serve18 batch
// serve18 commits 11 batches per --seconds, so the default 10 s run has
// 110 commits and commit_tail_ms lands at p90 with 10 samples beyond it.
constexpr double kBatchesPerSecond = 11.0;
// serve18 reader schedule, queries/s.  A query takes ~2 us, so the
// reader is ~1% busy: query_p50_us is service time under concurrent
// commits, not queueing, and a 10 s run has ~50k samples for p99.
constexpr double kQueryRate = 5000;
constexpr int kSetupReps = 3;        // set-ups per run; setup_s is their median
constexpr int kLevel1Reps = 3;       // repetitions of each level-1 probe

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/out";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--out-dir D]\nworkloads:",
               why.c_str());
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string val = argv[++i];
    if (arg == "--workload") {
      for (const auto& w : kWorkloads)
        if (val == w.name) a.workload = &w;
      if (a.workload == nullptr) usage("unknown workload " + val);
    } else if (arg == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::atof(val.c_str());
    } else if (arg == "--trace") {
      a.trace = val == "1";
    } else if (arg == "--out-dir") {
      a.out_dir = val;
    } else {
      usage("unknown flag " + arg);
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

// ------------------------------------------------------------------ helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// CPU time the hypervisor has stolen from this machine so far, summed
/// over all CPUs (the "steal" column of /proc/stat; 0 where absent).
double stolen_cpu_seconds() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  f >> cpu;
  for (double& x : fields) f >> x;
  return fields[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Share of the machine's CPU time stolen since construction: the
/// other tenants of a shared host, which no program change can move.
class StealMeter {
 public:
  [[nodiscard]] double share() const {
    const double cpu_s = wall_.seconds() * static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
    return cpu_s > 0.0 ? (stolen_cpu_seconds() - start_) / cpu_s : 0.0;
  }

 private:
  double start_ = stolen_cpu_seconds();
  WallTimer wall_;
};

/// One timed repetition and the host's steal share while it ran.
struct Sample {
  double seconds = 0.0;
  double steal = 0.0;
};

/// A sample with at most this steal share ran on an undisturbed host.
constexpr double kQuietSteal = 0.01;

/// Median time of the least-stolen half of the samples.  On a shared
/// host, steal stretches a 4-thread run several times its own share
/// (every barrier waits for the stolen vCPU); ranking by the measured
/// steal keeps other tenants out of the number without a model of it.
double quiet_median(std::vector<Sample> v) {
  std::stable_sort(v.begin(), v.end(),
                   [](const Sample& a, const Sample& b) { return a.steal < b.steal; });
  std::vector<double> quiet;
  for (std::size_t i = 0; i < (v.size() + 1) / 2; ++i) quiet.push_back(v[i].seconds);
  return median(quiet);
}

bool any_quiet(const std::vector<Sample>& v) {
  return std::any_of(v.begin(), v.end(), [](const Sample& x) { return x.steal <= kQuietSteal; });
}

/// The run's result: metrics in insertion order, operation counts, and
/// output checks.  A failing check is printed at once and fails the run.
class Result {
 public:
  /// `better` is "higher" or "lower" for a metric compare.py compares,
  /// "-" for bookkeeping (sample counts, steal) it skips.
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& better = "-") {
    if (!std::isfinite(value)) {
      check(false, "metric " + name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back({name, value, unit, better});
  }

  void check(bool ok, const std::string& what) {
    ++checks_;
    if (ok) return;
    correct_ = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }

  void operation(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void operations(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  [[nodiscard]] bool correct() const noexcept { return correct_; }
  [[nodiscard]] std::int64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::int64_t failed() const noexcept { return failed_; }

  void print(const std::string& workload) const {
    for (const auto& m : metrics_)
      std::printf("metric %-28s %-20.10g %-10s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.better.c_str());
    std::printf("# %s: %lld checks, %s; %lld operations, %lld failed\n", workload.c_str(),
                static_cast<long long>(checks_), correct_ ? "all passed" : "FAILED",
                static_cast<long long>(attempted_), static_cast<long long>(failed_));
  }

  /// The final stdout line.  Only the metrics named in `keep` go into
  /// it (the rest were printed above as "metric" lines).
  void print_json(const std::vector<std::string>& keep) const {
    std::string out = std::string("{\"correct\": ") + (correct_ ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(std::max<std::int64_t>(attempted_, 1)) +
                      ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    bool first = true;
    for (const auto& m : metrics_) {
      if (std::find(keep.begin(), keep.end(), m.name) == keep.end()) continue;
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
      out += std::string(first ? "" : ", ") + "\"" + m.name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string better;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  std::int64_t checks_ = 0;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// The end-to-end metrics every workload reports in its final JSON line
/// (BENCHMARK.json "end_to_end").  The workload-specific ones
/// (edges_per_s_t1, speedup_t4, commit_*, ingest_deltas_per_s,
/// query_p50_us, error_rate) are printed as "metric" lines only.
const std::vector<std::string> kEndToEnd = {"setup_s", "edges_per_s", "modularity",
                                            "peak_rss_mb"};

/// Every per-layer metric (BENCHMARK.json "per_layer") with its unit and
/// direction.
/// A traced run reports all of them; a layer the workload does not
/// exercise reports 0 (no work done).
struct Layer {
  const char* name;
  const char* unit;
  const char* better;
};
const std::vector<Layer> kPerLayer = {
    {"gen.s", "s", "lower"},
    {"cc.s", "s", "lower"},
    {"graph.build_s", "s", "lower"},
    {"shard.partition_s", "s", "lower"},
    {"serve.create_s", "s", "lower"},
    {"score.total_s", "s", "lower"},
    {"score.l1_s", "s", "lower"},
    {"score.positive_frac_l1", "fraction", "higher"},
    {"match.total_s", "s", "lower"},
    {"match.l1_s", "s", "lower"},
    {"match.sweeps_l1", "count", "lower"},
    {"match.matched_frac_l1", "fraction", "higher"},
    {"contract.total_s", "s", "lower"},
    {"contract.l1_s", "s", "lower"},
    {"contract.relabel_l1_s", "s", "lower"},
    {"contract.by_labels_l1_s", "s", "lower"},
    {"contract.shrink_l1", "ratio", "lower"},
    {"contract.l1_gbps_computed", "GB/s", "higher"},
    {"contract.l1_bw_frac", "fraction", "higher"},
    {"core.detect_s", "s", "lower"},
    {"core.levels", "count", "lower"},
    {"core.tail_levels", "count", "lower"},
    {"core.tail_s", "s", "lower"},
    {"core.driver_s", "s", "lower"},
    {"graph.apply_delta_ms", "ms", "lower"},
    {"dyn.recompute_ms", "ms", "lower"},
    {"dyn.dirty_frac", "fraction", "lower"},
    {"dyn.kept_prior_frac", "fraction", "lower"},
    {"serve.wal_append_ms", "ms", "lower"},
    {"serve.publish_ms", "ms", "lower"},
    {"serve.submit_wait_us", "us", "lower"},
    {"serve.query_p99_us", "us", "lower"},
    {"serve.gen_lag_p99_us", "us", "lower"},
    {"shard.score_total_s", "s", "lower"},
    {"shard.match_total_s", "s", "lower"},
    {"shard.contract_total_s", "s", "lower"},
    {"shard.levels", "count", "lower"},
    {"obs.trace_overhead_frac", "fraction", "lower"},
    {"host.steal_frac", "fraction", "lower"},
    {"host.triad_gbps", "GB/s", "higher"},
    {"host.llc_bytes", "bytes", "higher"},
    {"host.triad_array_bytes", "bytes", "higher"},
};

/// Per-layer values collected by a traced run; missing names print as 0.
using LayerValues = std::map<std::string, double>;

void report_layers(Result& result, const LayerValues& values) {
  for (const auto& [name, unit, better] : kPerLayer) {
    const auto it = values.find(name);
    result.metric(name, it == values.end() ? 0.0 : it->second, unit, better);
  }
}

double peak_rss_mb() {
  return static_cast<double>(obs::rss_high_water_bytes()) / (1024.0 * 1024.0);
}


// -------------------------------------------------------------------- setup

struct SetupTimes {
  double gen_s = 0.0;
  double cc_s = 0.0;
  double build_s = 0.0;
  double extra_s = 0.0;  // partition (sharded) or service create (serve)
  [[nodiscard]] double total() const noexcept { return gen_s + cc_s + build_s + extra_s; }
};

RmatParams rmat_params(const Workload& w, std::uint64_t seed) {
  RmatParams p;
  p.scale = w.scale;
  p.edge_factor = kEdgeFactor;
  p.seed = seed;
  return p;
}

/// Id of each generated vertex in the largest component (-1 outside it),
/// the same order-preserving dense relabeling largest_component applies.
std::vector<V> lcc_ids(const EdgeList<V>& raw) {
  const std::vector<V> comp = connected_components(raw);
  std::vector<std::int64_t> size(comp.size(), 0);
  for (const V c : comp) ++size[static_cast<std::size_t>(c)];
  const auto root = static_cast<V>(std::max_element(size.begin(), size.end()) - size.begin());
  std::vector<V> id(comp.size(), -1);
  V next = 0;
  for (std::size_t v = 0; v < comp.size(); ++v)
    if (comp[v] == root) id[v] = next++;
  return id;
}

/// Generation + largest component + community-graph build.  With
/// `lcc_id` set, also returns lcc_ids of the generated graph (not timed).
CommunityGraph<V> build_input(const Workload& w, std::uint64_t seed, SetupTimes& t,
                              std::vector<V>* lcc_id = nullptr) {
  EdgeList<V> raw;
  {
    obs::ScopedSpan span("bench.gen");
    WallTimer timer;
    if (w.sbm) {
      PlantedPartitionParams p;
      p.num_vertices = std::int64_t{1} << w.scale;
      p.num_blocks = kSbmBlocks;
      p.internal_degree = 18.0;
      p.external_degree = 10.0;
      p.seed = seed;
      raw = generate_planted_partition<V>(p);
    } else {
      raw = generate_rmat<V>(rmat_params(w, seed));
    }
    t.gen_s = timer.seconds();
  }
  EdgeList<V> lcc;
  {
    obs::ScopedSpan span("bench.largest_component");
    WallTimer timer;
    lcc = largest_component(raw);
    t.cc_s = timer.seconds();
  }
  if (lcc_id != nullptr) *lcc_id = lcc_ids(raw);
  EdgeList<V>().edges.swap(raw.edges);
  obs::ScopedSpan span("bench.build_community_graph");
  WallTimer timer;
  auto g = build_community_graph(lcc);
  t.build_s = timer.seconds();
  return g;
}

void record_setup(LayerValues& layers, const std::vector<SetupTimes>& reps) {
  std::vector<double> gen, cc, build;
  for (const auto& r : reps) {
    gen.push_back(r.gen_s);
    cc.push_back(r.cc_s);
    build.push_back(r.build_s);
  }
  layers["gen.s"] = median(gen);
  layers["cc.s"] = median(cc);
  layers["graph.build_s"] = median(build);
}

double setup_median(const std::vector<SetupTimes>& reps) {
  std::vector<double> totals;
  for (const auto& r : reps) totals.push_back(r.total());
  return median(totals);
}

// ------------------------------------------------------------ output checks

/// Dense labels covering every vertex, and the reported modularity equal
/// to a from-scratch evaluation over the input graph.
void check_clustering(Result& result, const CommunityGraph<V>& g, const std::vector<V>& labels,
                      std::int64_t num_communities, double reported_q, const std::string& what) {
  result.check(static_cast<std::int64_t>(labels.size()) == static_cast<std::int64_t>(g.nv),
               what + ": labels cover " + std::to_string(labels.size()) + " of " +
                   std::to_string(g.nv) + " vertices");
  std::vector<std::uint8_t> used(static_cast<std::size_t>(std::max<std::int64_t>(num_communities, 0)), 0);
  bool in_range = true;
  for (const V l : labels) {
    if (l < 0 || l >= num_communities) {
      in_range = false;
      break;
    }
    used[static_cast<std::size_t>(l)] = 1;
  }
  result.check(in_range, what + ": a label lies outside [0, num_communities)");
  result.check(in_range && std::find(used.begin(), used.end(), 0) == used.end(),
               what + ": labels are not dense");
  if (!in_range || labels.size() != static_cast<std::size_t>(g.nv)) return;
  const double q = evaluate_partition(g, std::span<const V>(labels.data(), labels.size())).modularity;
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: reported modularity %.12f, re-evaluated %.12f",
                what.c_str(), reported_q, q);
  result.check(std::fabs(q - reported_q) <= 1e-9, buf);
}

// ---------------------------------------------------------------- detection

DetectOptions detect_options() {
  DetectOptions o;
  o.agglomeration.min_coverage = 0.5;  // the paper's DIMACS rule
  return o;
}

struct Detection {
  Clustering<V> clustering;
  double wall_s = 0.0;
  double steal = 0.0;  // StealMeter share over the detection
};

/// One checked full detection: unsharded facade, or the sharded plan
/// over a freshly partitioned graph (partitioning is not timed here).
Detection detect_once(const CommunityGraph<V>& g, bool sharded, Result& result) {
  Detection d;
  if (sharded) {
    ShardedGraph<V> sg;
    {
      obs::ScopedSpan span("bench.partition_graph");
      sg = partition_graph(g, kShards);
    }
    obs::ScopedSpan span("bench.detect_communities_sharded");
    const StealMeter steal;
    WallTimer t;
    d.clustering = detect_communities_sharded(std::move(sg), detect_options());
    d.wall_s = t.seconds();
    d.steal = steal.share();
  } else {
    obs::ScopedSpan span("bench.detect_communities");
    const StealMeter steal;
    WallTimer t;
    d.clustering = detect_communities(g, detect_options());
    d.wall_s = t.seconds();
    d.steal = steal.share();
  }
  const bool degraded = is_degraded(d.clustering.reason);
  result.operation(!degraded);
  result.check(!degraded, std::string("detection degraded: ") +
                              std::string(to_string(d.clustering.reason)));
  check_clustering(result, g, d.clustering.community, d.clustering.num_communities,
                   d.clustering.final_modularity, sharded ? "sharded detection" : "detection");
  return d;
}

struct PhaseTotals {
  double score_s = 0.0;
  double match_s = 0.0;
  double contract_s = 0.0;
  int levels = 0;
  int tail_levels = 0;  // levels that matched <= 1% of their vertices
  double tail_s = 0.0;
};

PhaseTotals phase_totals(const Clustering<V>& c) {
  PhaseTotals t;
  for (const LevelStats& l : c.levels) {
    const double s = l.score_seconds + l.match_seconds + l.contract_seconds;
    t.score_s += l.score_seconds;
    t.match_s += l.match_seconds;
    t.contract_s += l.contract_seconds;
    ++t.levels;
    if (2.0 * static_cast<double>(l.pairs_matched) <= 0.01 * static_cast<double>(l.nv_before)) {
      ++t.tail_levels;
      t.tail_s += s;
    }
  }
  return t;
}

bool same_graph(const CommunityGraph<V>& a, const CommunityGraph<V>& b) {
  return a.nv == b.nv && a.total_weight == b.total_weight && a.volume == b.volume &&
         a.self_weight == b.self_weight && a.efirst == b.efirst && a.esecond == b.esecond &&
         a.eweight == b.eweight && a.bucket_begin == b.bucket_begin &&
         a.bucket_end == b.bucket_end;
}

/// Level 1 primitive by primitive: score_edges, the unmatched-list
/// matcher, the bucket-sort contractor, and relabel_matched followed by
/// contract_by_labels on the same matching (which must give the same
/// graph).  Times are medians over kLevel1Reps repetitions.
void probe_level1(const CommunityGraph<V>& g, Result& result, LayerValues& layers,
                  double triad_gbps) {
  std::vector<double> score_s, match_s, contract_s, relabel_s, by_labels_s;
  double positive_frac = 0.0, matched_frac = 0.0, shrink = 0.0, sweeps = 0.0;
  double bytes = 0.0;
  for (int rep = 0; rep < kLevel1Reps; ++rep) {
    obs::ScopedSpan rep_span("bench.level1");
    std::vector<Score> scores;
    ScoreSummary summary;
    {
      obs::ScopedSpan span("bench.score_edges");
      WallTimer t;
      summary = score_edges(g, ModularityScorer{}, scores);
      score_s.push_back(t.seconds());
    }
    Matching<V> m;
    {
      obs::ScopedSpan span("bench.unmatched_list_match");
      WallTimer t;
      m = UnmatchedListMatcher<V>{}.match(g, scores);
      match_s.push_back(t.seconds());
    }
    result.check(is_valid_matching(m), "level-1 matching is not a valid matching");
    result.check(is_maximal_matching(g, scores, m), "level-1 matching is not maximal");
    ContractionResult<V> contracted;
    {
      obs::ScopedSpan span("bench.bucket_sort_contract");
      WallTimer t;
      contracted = BucketSortContractor<V>{}.contract(g, m);
      contract_s.push_back(t.seconds());
    }
    RelabelResult<V> rel;
    {
      obs::ScopedSpan span("bench.relabel_matched");
      WallTimer t;
      rel = relabel_matched(g, m);
      relabel_s.push_back(t.seconds());
    }
    CommunityGraph<V> by_labels;
    {
      obs::ScopedSpan span("bench.contract_by_labels");
      WallTimer t;
      by_labels = contract_by_labels(
          g, std::span<const V>(rel.new_label.data(), rel.new_label.size()), rel.new_nv);
      by_labels_s.push_back(t.seconds());
    }
    result.check(rel.new_label == contracted.new_label && same_graph(contracted.graph, by_labels),
                 "relabel_matched + contract_by_labels differs from BucketSortContractor");

    const auto ne = static_cast<double>(g.num_edges());
    positive_frac = ne > 0 ? static_cast<double>(summary.positive_edges) / ne : 0.0;
    matched_frac = 2.0 * static_cast<double>(m.num_pairs) / static_cast<double>(g.nv);
    sweeps = m.sweeps;
    const auto ne_out = static_cast<double>(contracted.graph.num_edges());
    shrink = ne > 0 ? ne_out / ne : 0.0;
    // Computed bytes of the contractor's four edge passes (edge arrays
    // only: label gathers, counters and cache misses are not counted):
    // count reads both endpoints; scatter reads the triple and writes
    // (second, weight) per live edge; the per-bucket sort reads and
    // writes them back; copy-out reads them and writes the output triple.
    std::int64_t live = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto i = static_cast<std::size_t>(e);
      live += rel.new_label[static_cast<std::size_t>(g.efirst[i])] !=
              rel.new_label[static_cast<std::size_t>(g.esecond[i])];
    }
    constexpr double sv = sizeof(V), sw = sizeof(Weight);
    bytes = ne * (4 * sv + sw) + 3.0 * static_cast<double>(live) * (sv + sw) +
            ne_out * (3 * sv + 2 * sw);
  }
  layers["score.l1_s"] = median(score_s);
  layers["score.positive_frac_l1"] = positive_frac;
  layers["match.l1_s"] = median(match_s);
  layers["match.sweeps_l1"] = sweeps;
  layers["match.matched_frac_l1"] = matched_frac;
  layers["contract.l1_s"] = median(contract_s);
  layers["contract.relabel_l1_s"] = median(relabel_s);
  layers["contract.by_labels_l1_s"] = median(by_labels_s);
  layers["contract.shrink_l1"] = shrink;
  const double gbps = bytes / median(contract_s) / 1e9;
  layers["contract.l1_gbps_computed"] = gbps;
  layers["contract.l1_bw_frac"] = triad_gbps > 0.0 ? gbps / triad_gbps : 0.0;
}

// ---------------------------------------------------------- host bandwidth

/// Last-level cache bytes from sysfs: the highest-level cache of each CPU
/// in use, summed over the distinct instances (by shared_cpu_list).
std::int64_t last_level_cache_bytes(int cpus) {
  namespace fs = std::filesystem;
  std::int64_t total = 0;
  std::vector<std::string> seen;
  for (int cpu = 0; cpu < cpus; ++cpu) {
    const fs::path dir = "/sys/devices/system/cpu/cpu" + std::to_string(cpu) + "/cache";
    int best_level = -1;
    std::int64_t best_size = 0;
    std::string best_shared;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      std::ifstream level_f(entry.path() / "level"), size_f(entry.path() / "size"),
          shared_f(entry.path() / "shared_cpu_list");
      int level = 0;
      std::string size_s, shared;
      if (!(level_f >> level) || !(size_f >> size_s)) continue;
      shared_f >> shared;
      std::int64_t bytes = std::atoll(size_s.c_str());
      if (size_s.back() == 'K') bytes <<= 10;
      if (size_s.back() == 'M') bytes <<= 20;
      if (level > best_level) {
        best_level = level;
        best_size = bytes;
        best_shared = shared;
      }
    }
    if (best_level < 0) continue;
    if (std::find(seen.begin(), seen.end(), best_shared) != seen.end()) continue;
    seen.push_back(best_shared);
    total += best_size;
  }
  return total > 0 ? total : std::int64_t{32} << 20;  // unknown: assume 32 MiB
}

/// STREAM triad a = b + s*c, each array 4x the last-level cache; best of
/// five passes, counting 3 x 8 bytes per element.
void probe_triad(LayerValues& layers, int threads, Result& result) {
  obs::ScopedSpan span("bench.triad");
  const std::int64_t llc = last_level_cache_bytes(threads);
  const std::int64_t n = 4 * llc / static_cast<std::int64_t>(sizeof(double));
  std::unique_ptr<double[]> a(new double[static_cast<std::size_t>(n)]);
  std::unique_ptr<double[]> b(new double[static_cast<std::size_t>(n)]);
  std::unique_ptr<double[]> c(new double[static_cast<std::size_t>(n)]);
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  const double s = 3.0;
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    WallTimer t;
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    best = std::max(best, 24.0 * static_cast<double>(n) / t.seconds() / 1e9);
  }
  result.check(a[0] == 7.0 && a[n - 1] == 7.0, "triad produced a wrong value");
  layers["host.triad_gbps"] = best;
  layers["host.llc_bytes"] = static_cast<double>(llc);
  layers["host.triad_array_bytes"] = static_cast<double>(n) * sizeof(double);
}

// ---------------------------------------------------- detection workloads

void run_detect_workload(const Args& args, Result& result, LayerValues& layers,
                         obs::Trace* trace) {
  const Workload& w = *args.workload;
  const bool sharded = w.kind == Kind::kSharded;
  std::vector<SetupTimes> setups;
  std::vector<double> partition_s;
  CommunityGraph<V> g;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Free the previous repetition's graph first, so set-up never holds
    // two copies and peak_rss_mb is not set by the benchmark's own copy.
    g = {};
    obs::ScopedSpan span("bench.setup");
    SetupTimes t;
    g = build_input(w, args.seed, t);
    if (sharded) {
      // Set-up includes partitioning; the partition itself is redone
      // before every detection (the sharded driver consumes it).
      obs::ScopedSpan pspan("bench.partition_graph");
      WallTimer timer;
      const ShardedGraph<V> sg = partition_graph(g, kShards);
      t.extra_s = timer.seconds();
      partition_s.push_back(t.extra_s);
    }
    setups.push_back(t);
  }
  const double ne = static_cast<double>(g.num_edges());
  std::fprintf(stderr, "perfbench: %s seed %llu: %lld vertices, %lld edges, set-up %.3f s\n",
               w.name, static_cast<unsigned long long>(args.seed),
               static_cast<long long>(g.nv), static_cast<long long>(g.num_edges()),
               setup_median(setups));
  record_setup(layers, setups);
  if (sharded) layers["shard.partition_s"] = median(partition_s);

  // Measured window: 4-thread detections (interleaved untraced/traced
  // pairs in a traced run); sbm20 then adds the 1-thread baseline.
  const WallTimer window;
  const StealMeter window_steal;
  const double t4_window = w.sbm && !args.trace ? 0.4 * args.seconds : args.seconds;
  const std::size_t min_t4 = w.sbm && !args.trace ? 2 : 1;
  // Sampling stops once the window is over, or up to half a window
  // later while steal has disturbed every sample so far.
  const auto more = [&](const std::vector<Sample>& v, std::size_t min_n, double until) {
    if (v.size() < min_n || window.seconds() < until) return true;
    return !any_quiet(v) && window.seconds() < 1.5 * until;
  };
  std::vector<Detection> traced;
  std::vector<Sample> plain, traced_samples, t1;
  std::vector<double> q;
  std::vector<V> first_labels;
  while (more(plain, min_t4, t4_window)) {
    obs::install_trace(nullptr);
    const Detection d = detect_once(g, sharded, result);
    obs::install_trace(trace);
    plain.push_back({d.wall_s, d.steal});
    q.push_back(d.clustering.final_modularity);
    if (sharded) {
      // The sharded path is deterministic: every detection must agree.
      if (first_labels.empty()) first_labels = d.clustering.community;
      result.check(d.clustering.community == first_labels,
                   "sharded detections disagree across repetitions");
    }
    if (trace != nullptr) {
      traced.push_back(detect_once(g, sharded, result));
      traced_samples.push_back({traced.back().wall_s, traced.back().steal});
    }
  }
  if (w.sbm && !args.trace) {
    omp_set_num_threads(1);
    while (t1.empty() || window.seconds() < args.seconds) {
      const Detection d = detect_once(g, false, result);
      t1.push_back({d.wall_s, d.steal});
    }
    omp_set_num_threads(w.threads);
  }
  const double steal = window_steal.share();

  result.metric("setup_s", setup_median(setups), "s", "lower");
  result.metric("edges_per_s", ne / quiet_median(plain), "edges/s", "higher");
  if (!t1.empty()) {
    result.metric("edges_per_s_t1", ne / quiet_median(t1), "edges/s", "higher");
    result.metric("speedup_t4", quiet_median(t1) / quiet_median(plain), "ratio", "higher");
  }
  result.metric("modularity", median(q), "Q", "higher");
  result.metric("steal_share", steal, "fraction");
  std::printf("# detect_s (steal share) on %d threads:", w.threads);
  for (const Sample& x : plain) std::printf(" %.4f (%.3f)", x.seconds, x.steal);
  if (!t1.empty()) std::printf("; on 1 thread:");
  for (const Sample& x : t1) std::printf(" %.4f (%.3f)", x.seconds, x.steal);
  std::printf("\n");

  if (trace == nullptr) return;
  // Per-layer numbers all come from the least-stolen traced detection,
  // so score + match + contract + driver adds up to its wall time.
  const auto quietest = std::min_element(
      traced.begin(), traced.end(),
      [](const Detection& a, const Detection& b) { return a.steal < b.steal; });
  const Detection& d = *quietest;
  const PhaseTotals p = phase_totals(d.clustering);
  const double phases = p.score_s + p.match_s + p.contract_s;
  layers["host.steal_frac"] = steal;
  layers["obs.trace_overhead_frac"] = quiet_median(traced_samples) / quiet_median(plain) - 1.0;
  layers["core.detect_s"] = d.wall_s;
  if (sharded) {
    layers["shard.score_total_s"] = p.score_s;
    layers["shard.match_total_s"] = p.match_s;
    layers["shard.contract_total_s"] = p.contract_s;
    layers["shard.levels"] = p.levels;
    return;
  }
  layers["score.total_s"] = p.score_s;
  layers["match.total_s"] = p.match_s;
  layers["contract.total_s"] = p.contract_s;
  layers["core.levels"] = p.levels;
  layers["core.tail_levels"] = p.tail_levels;
  layers["core.tail_s"] = p.tail_s;
  layers["core.driver_s"] = d.wall_s - phases;
  probe_level1(g, result, layers, layers["host.triad_gbps"]);
}

// ------------------------------------------------------------------ serve18

using EdgeDraws = std::vector<std::pair<V, V>>;

/// Edges drawn from the input's own R-MAT model (same parameters, another
/// seed), in largest-component ids; self-loops and edges leaving the
/// component are dropped.  R-MAT does not scramble ids, so the draws
/// land on the same hubs the input graph has.
EdgeDraws rmat_draws(const Workload& w, std::uint64_t seed, const std::vector<V>& lcc_id) {
  RmatParams p = rmat_params(w, seed);
  p.edge_factor = 1;
  const EdgeList<V> raw = generate_rmat<V>(p);
  EdgeDraws out;
  for (const auto& e : raw.edges) {
    const V u = lcc_id[static_cast<std::size_t>(e.u)];
    const V v = lcc_id[static_cast<std::size_t>(e.v)];
    if (u >= 0 && v >= 0 && u != v) out.emplace_back(u, v);
  }
  return out;
}

/// One batch of the write stream: half deletes of existing edges picked
/// uniformly (so each vertex loses edges in proportion to its degree),
/// half inserts of the next R-MAT draws (so new edges follow the input's
/// degree skew).  Together they churn the graph without changing the
/// shape of its degree distribution.
std::vector<std::string> make_batch(const CommunityGraph<V>& g, const EdgeDraws& inserts,
                                    std::uint64_t seed, int batch) {
  const auto ne = static_cast<std::uint64_t>(g.num_edges());
  const CounterRng rng(seed, 1000 + static_cast<std::uint64_t>(batch));
  std::vector<std::string> lines;
  lines.reserve(kBatchDeltas);
  for (int i = 0; i < kBatchDeltas; ++i) {
    EdgeDelta<V> d;
    if (i % 2 == 0) {
      const auto e = static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(i), ne));
      d = {DeltaOp::kDelete, g.efirst[e], g.esecond[e], 0};
    } else {
      const std::size_t k = static_cast<std::size_t>(batch) * (kBatchDeltas / 2) +
                            static_cast<std::size_t>(i / 2);
      const auto& [u, v] = inserts[k % inserts.size()];
      d = {DeltaOp::kInsert, u, v, 1};
    }
    lines.push_back(format_delta_line(d));
  }
  return lines;
}

struct ReaderLog {
  std::vector<double> latency_us;  // reply time - scheduled send time
  std::vector<double> lag_us;      // actual send time - scheduled send time
  std::int64_t errors = 0;
  std::int64_t stale = 0;  // COMMUNITY ids a commit retired after the GET that gave them
};

/// Open-loop reader: one query every 1/kQueryRate s on a fixed schedule,
/// busy-waiting for each due time so the schedule, not the timer slack,
/// sets when queries go out.  The queries follow from the input model
/// and the write stream: a visit is `GET v` for a vertex drawn with
/// R-MAT's endpoint skew (well-connected vertices are looked up more),
/// then `COMMUNITY` of the label that GET returned; each newly published
/// epoch the reader sees adds one `QUALITY`.
void reader_loop(serve::CommunityService<V>& svc, const EdgeDraws& visits,
                 const std::atomic<bool>& stop, ReaderLog& log) {
  serve::Session<V> session(svc, "bench-reader");
  std::int64_t seen_epoch = svc.snapshot()->epoch;
  bool quality_due = false;
  std::int64_t label = -1, label_epoch = 0;
  std::size_t next_visit = 0;
  const auto start = Clock::now();
  const std::chrono::duration<double> period(1.0 / kQueryRate);
  for (std::uint64_t k = 0;; ++k) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(k));
    auto now = Clock::now();
    while (now < due && !stop.load(std::memory_order_relaxed)) now = Clock::now();
    if (stop.load(std::memory_order_relaxed)) break;
    std::string line;
    const bool community = label >= 0;
    const bool get = !community && !quality_due;
    if (community) {
      line = "COMMUNITY " + std::to_string(label);
    } else if (quality_due) {
      line = "QUALITY";
      quality_due = false;
    } else {
      const auto& [a, b] = visits[(next_visit / 2) % visits.size()];
      line = "GET " + std::to_string(next_visit % 2 == 0 ? a : b);
      ++next_visit;
    }
    serve::Session<V>::Reply reply;
    {
      obs::ScopedSpan span("bench.query");
      reply = session.handle_line(line);
    }
    const auto done = Clock::now();
    log.latency_us.push_back(std::chrono::duration<double, std::micro>(done - due).count());
    log.lag_us.push_back(std::chrono::duration<double, std::micro>(now - due).count());
    const bool ok = reply.line && reply.line->rfind("OK ", 0) == 0;
    if (community) {
      // A commit between the GET and this query may have retired the id.
      if (!ok) ++(svc.snapshot()->epoch > label_epoch ? log.stale : log.errors);
      label = -1;
      continue;
    }
    if (!ok) {
      ++log.errors;
      continue;
    }
    if (get) {  // "OK <vertex> <label> <epoch>"
      std::istringstream is(reply.line->substr(3));
      std::int64_t vertex = 0;
      if (!(is >> vertex >> label >> label_epoch)) {
        ++log.errors;
        label = -1;
      } else if (label_epoch > seen_epoch) {
        seen_epoch = label_epoch;
        quality_due = true;
      }
    }
  }
}

serve::ServeOptions serve_options(const std::string& dir) {
  serve::ServeOptions o;
  o.dir = dir;
  o.fsync_wal = false;          // measure the program, not the shared disk
  o.save_every_batches = 0;     // no periodic snapshot saves
  o.batch_max_deltas = std::int64_t{1} << 20;  // only COMMIT cuts a batch:
  o.batch_max_delay_seconds = 3600.0;          // one batch = one epoch
  o.dynamic.detect.agglomeration.min_coverage = 0.5;
  // Halo 0 and one round of flat refinement.  With the default 1-hop
  // halo, R-MAT's hubs unseat ~32% of the vertices per 2000-delta batch
  // and a commit takes ~0.8 s.  Without refinement the warm
  // re-agglomeration lost to the prior labels on every batch at either
  // radius, so its result was always thrown away.  With refinement it
  // wins and is committed; more rounds made whole runs lock into
  // keeping the prior or not, and the final modularity of one seed
  // varied by ~10% from run to run.
  o.dynamic.halo_hops = 0;
  o.dynamic.detect.refine_mode = DetectOptions::RefineMode::kFlat;
  o.dynamic.detect.refinement.max_rounds = 1;
  return o;
}

void run_serve_workload(const Args& args, Result& result, LayerValues& layers, obs::Trace* trace) {
  const Workload& w = *args.workload;
  namespace fs = std::filesystem;
  // Blocks of 1 MiB and more always come from mmap and go back to the
  // system when freed.  Under glibc's default, whose threshold adapts to
  // the block sizes freed so far, whether a commit reused a freed
  // graph-sized block depended on thread timing, and peak_rss_mb jumped
  // by ~25% in 3 of 20 runs.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  const std::string dir = args.out_dir + "/serve18-state-" + std::to_string(args.seed) + "-" +
                          std::to_string(::getpid());
  std::vector<SetupTimes> setups;
  std::unique_ptr<serve::CommunityService<V>> svc;
  std::int64_t nv = 0;
  EdgeId ne0 = 0;
  std::vector<V> lcc_id;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (svc) {
      svc->shutdown();
      svc.reset();
    }
    fs::remove_all(dir);
    obs::ScopedSpan span("bench.setup");
    SetupTimes t;
    CommunityGraph<V> g = build_input(w, args.seed, t, rep == 0 ? &lcc_id : nullptr);
    nv = g.nv;
    ne0 = g.num_edges();
    obs::ScopedSpan cspan("bench.service_create");
    WallTimer timer;
    auto created = serve::CommunityService<V>::create(std::move(g), serve_options(dir));
    t.extra_s = timer.seconds();
    if (!created.has_value())
      throw std::runtime_error("service create failed: " + created.error().message());
    svc = std::move(created.value());
    setups.push_back(t);
  }
  std::fprintf(stderr, "perfbench: %s seed %llu: %lld vertices, %lld edges, set-up %.3f s\n",
               w.name, static_cast<unsigned long long>(args.seed), static_cast<long long>(nv),
               static_cast<long long>(ne0), setup_median(setups));
  record_setup(layers, setups);
  {
    std::vector<double> create;
    for (const auto& s : setups) create.push_back(s.extra_s);
    layers["serve.create_s"] = median(create);
  }

  // The batch count follows --seconds (about 0.2 s per commit on the
  // reference host), not the clock, so every run commits the same
  // stream and the final modularity does not depend on host speed.
  const int batches = std::max(4, static_cast<int>(std::lround(kBatchesPerSecond * args.seconds)));
  const auto stream_seed = [&](std::uint64_t k) { return args.seed + (k << 32); };
  const EdgeDraws inserts = rmat_draws(w, stream_seed(1), lcc_id);
  const EdgeDraws visits = rmat_draws(w, stream_seed(2), lcc_id);
  result.check(std::count_if(lcc_id.begin(), lcc_id.end(), [](V id) { return id >= 0; }) == nv,
               "largest-component ids do not match the input graph");
  std::atomic<bool> stop{false};
  ReaderLog reader;
  std::thread reader_thread(reader_loop, std::ref(*svc), std::cref(visits), std::cref(stop),
                            std::ref(reader));
  serve::Session<V> writer(*svc, "bench-writer");
  const StealMeter window_steal;
  std::vector<double> commit_s, submit_us;
  std::vector<Sample> plain_commits, traced_commits;
  std::int64_t deltas = 0, err_lines = 0, failed_commits = 0;
  std::int64_t epoch = svc->snapshot()->epoch;
  try {
    for (int b = 0; b < batches; ++b) {
      // The writer thread is idle between commits, so reading the
      // maintained graph here does not race with it.
      const auto lines = make_batch(svc->dynamics().graph(), inserts, args.seed, b);
      const bool traced = trace != nullptr && b % 2 == 1;
      obs::install_trace(traced ? trace : nullptr);
      serve::Session<V>::Reply reply;
      const StealMeter steal;
      const WallTimer timer;
      {
        obs::ScopedSpan span("bench.ingest_batch");
        for (const auto& line : lines) {
          obs::ScopedSpan sspan("bench.submit");
          if (writer.handle_line(line).line.has_value()) ++err_lines;
        }
        submit_us.push_back(timer.seconds() * 1e6 / static_cast<double>(lines.size()));
        obs::ScopedSpan cspan("bench.commit");
        reply = writer.handle_line("COMMIT");
      }
      const double s = timer.seconds();
      obs::install_trace(nullptr);
      commit_s.push_back(s);
      (traced ? traced_commits : plain_commits).push_back({s, steal.share()});
      const bool ok = reply.line.has_value() && *reply.line == "OK " + std::to_string(epoch + 1);
      result.operation(ok);
      if (!ok) {
        ++failed_commits;
        std::fprintf(stderr, "perfbench: batch %d: COMMIT replied '%s'\n", b,
                     reply.line.value_or("").c_str());
      } else {
        ++epoch;
        deltas += static_cast<std::int64_t>(lines.size());
      }
    }
  } catch (...) {
    stop.store(true);
    reader_thread.join();
    throw;
  }
  stop.store(true);
  reader_thread.join();
  const double steal = window_steal.share();

  // Output checks: the last published snapshot is the maintained
  // clustering, and its modularity re-evaluates to what was published.
  const auto snap = svc->snapshot();
  obs::TelemetrySnapshot telemetry;
  if (trace != nullptr) telemetry = svc->collect_telemetry();
  svc->shutdown();
  const DynamicCommunities<V>& dyn = svc->dynamics();
  result.check(snap->epoch == dyn.epoch() && snap->epoch == epoch,
               "published epoch " + std::to_string(snap->epoch) + " != maintained " +
                   std::to_string(dyn.epoch()));
  result.check(*snap->labels == dyn.clustering().community,
               "published labels differ from dynamics().clustering()");
  check_clustering(result, dyn.graph(), *snap->labels, snap->num_communities, snap->modularity,
                   "published snapshot");
  const obs::DynamicRunStats& stats = dyn.stats();
  std::int64_t degraded = 0;
  for (const auto& row : stats.batch_rows) degraded += row.degraded ? 1 : 0;
  result.operations(static_cast<std::int64_t>(deltas) + static_cast<std::int64_t>(reader.latency_us.size()),
                    err_lines + reader.errors + stats.rolled_back + degraded);
  result.check(err_lines == 0 && reader.errors == 0 && failed_commits == 0,
               std::to_string(err_lines) + " delta lines, " + std::to_string(reader.errors) +
                   " queries and " + std::to_string(failed_commits) + " commits failed");

  const double ingest_s = sum(commit_s);
  std::vector<double> sorted = commit_s;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  // Highest percentile with at least 10 samples beyond it.
  const std::size_t tail_idx = n > 10 ? n - 11 : n - 1;
  result.metric("setup_s", setup_median(setups), "s", "lower");
  // Gated rate: edge updates per second of one commit, over the
  // least-stolen half of the (untraced) batches.
  result.metric("edges_per_s", kBatchDeltas / quiet_median(plain_commits), "edges/s", "higher");
  result.metric("modularity", snap->modularity, "Q", "higher");
  result.metric("commit_p50_ms", median(commit_s) * 1e3, "ms", "lower");
  result.metric("commit_tail_ms", sorted[tail_idx] * 1e3, "ms", "lower");
  result.metric("commit_tail_pct", 100.0 * static_cast<double>(tail_idx + 1) / static_cast<double>(n),
                "%");
  result.metric("commit_samples", static_cast<double>(n), "count");
  result.metric("ingest_deltas_per_s", static_cast<double>(deltas) / ingest_s, "deltas/s",
                "higher");
  result.metric("query_p50_us", median(reader.latency_us), "us", "lower");
  result.metric("query_samples", static_cast<double>(reader.latency_us.size()), "count");
  result.metric("query_stale", static_cast<double>(reader.stale), "count");
  result.metric("steal_share", steal, "fraction");
  std::printf("# commit_ms:");
  for (const double s : commit_s) std::printf(" %.1f", s * 1e3);
  std::printf("\n");

  if (trace == nullptr) {
    fs::remove_all(dir);
    return;
  }
  std::vector<double> apply_ms, recompute_ms, dirty;
  double kept = 0.0;
  for (const auto& row : stats.batch_rows) {
    apply_ms.push_back(row.apply_seconds * 1e3);
    recompute_ms.push_back(row.recompute_seconds * 1e3);
    dirty.push_back(static_cast<double>(row.dirty) / static_cast<double>(nv));
    kept += row.kept_prior ? 1.0 : 0.0;
  }
  layers["graph.apply_delta_ms"] = median(apply_ms);
  layers["dyn.recompute_ms"] = median(recompute_ms);
  layers["dyn.dirty_frac"] = median(dirty);
  layers["dyn.kept_prior_frac"] =
      stats.batch_rows.empty() ? 0.0 : kept / static_cast<double>(stats.batch_rows.size());
  const auto hist_mean_ms = [&](const char* name) {
    const auto it = telemetry.histograms.find(name);
    return it == telemetry.histograms.end() ? 0.0 : it->second.mean() / 1e3;
  };
  layers["serve.wal_append_ms"] = hist_mean_ms("serve.batch.wal_append_us");
  layers["serve.publish_ms"] = hist_mean_ms("serve.batch.publish_us");
  layers["serve.submit_wait_us"] = median(submit_us);
  layers["serve.query_p99_us"] = percentile(reader.latency_us, 0.99);
  layers["serve.gen_lag_p99_us"] = percentile(reader.lag_us, 0.99);
  layers["host.steal_frac"] = steal;
  layers["obs.trace_overhead_frac"] =
      quiet_median(traced_commits) / quiet_median(plain_commits) - 1.0;
  fs::remove_all(dir);
}

// ------------------------------------------------------------ chrome trace

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// Chrome trace-event JSON ("X" complete events, microseconds).  Spans
/// are grouped into tracks by the name of their root span, so each
/// thread's nested spans stay on one track.
void write_chrome_trace(const obs::Trace& trace, const std::string& path) {
  const auto spans = trace.spans();
  std::map<std::string, int> track_of;
  std::vector<int> track(spans.size() + 1, 0);
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& s : spans) {
    if (s.parent == 0) {
      track[s.id] = track_of.emplace(s.name, static_cast<int>(track_of.size()) + 1).first->second;
    } else {
      track[s.id] = track[s.parent];
    }
    if (s.end_seconds < 0.0) continue;
    out << (first ? "" : ",") << "\n{\"name\":\"" << json_escape(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << track[s.id]
        << ",\"ts\":" << s.start_seconds * 1e6 << ",\"dur\":" << s.duration_seconds() * 1e6
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"end_us\":" << s.end_seconds * 1e6 << ",\"threads\":" << s.threads;
    for (const auto& a : s.attrs) {
      out << ",\"" << json_escape(a.key) << "\":";
      if (const auto* i = std::get_if<std::int64_t>(&a.value)) out << *i;
      else if (const auto* d = std::get_if<double>(&a.value))
        out << (std::isfinite(*d) ? *d : 0.0);
      else out << "\"" << json_escape(std::get<std::string>(a.value)) << "\"";
    }
    out << "}}";
    first = false;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload& w = *args.workload;

  // The OpenMP team size must hold for threads the library creates too
  // (the service's writer thread reads the process default), so it is
  // fixed through the environment: re-exec once with it set.
  const std::string want = std::to_string(w.threads);
  const char* have = std::getenv("OMP_NUM_THREADS");
  if (have == nullptr || want != have) {
    ::setenv("OMP_NUM_THREADS", want.c_str(), 1);
    ::execv("/proc/self/exe", argv);
    std::perror("perfbench: re-exec with OMP_NUM_THREADS");
  }
  omp_set_num_threads(w.threads);

  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d threads=%d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
              w.threads);
  std::fflush(stdout);
  Result result;
  LayerValues layers;
  try {
    std::filesystem::create_directories(args.out_dir);
    obs::Trace trace;
    obs::MetricsRegistry registry;
    std::unique_ptr<obs::MetricsSession> metrics;
    if (args.trace) {
      metrics = std::make_unique<obs::MetricsSession>(registry);
      obs::install_trace(&trace);
      probe_triad(layers, w.threads, result);
    }
    obs::Trace* sink = args.trace ? &trace : nullptr;
    if (w.kind == Kind::kServe)
      run_serve_workload(args, result, layers, sink);
    else
      run_detect_workload(args, result, layers, sink);
    obs::install_trace(nullptr);
    result.metric("peak_rss_mb", peak_rss_mb(), "MB", "lower");
    result.metric("error_rate",
                  static_cast<double>(result.failed()) /
                      static_cast<double>(std::max<std::int64_t>(result.attempted(), 1)),
                  "fraction", "lower");
    if (args.trace) {
      report_layers(result, layers);
      const std::string path = args.out_dir + "/" + w.name + "-seed" +
                               std::to_string(args.seed) + ".trace.json";
      write_chrome_trace(trace, path);
      std::printf("# chrome trace: %s (%zu spans)\n", path.c_str(), trace.size());
    }
  } catch (const std::exception& e) {
    obs::install_trace(nullptr);
    std::fprintf(stderr, "perfbench: %s failed: %s\n", w.name, e.what());
    return 1;
  }
  result.print(w.name);
  std::vector<std::string> keep = kEndToEnd;
  if (args.trace) {
    keep.clear();
    for (const auto& layer : kPerLayer) keep.push_back(layer.name);
  }
  result.print_json(keep);
  return result.correct() ? 0 : 1;
}
