// Observability-layer tests: tracer semantics (nesting, attrs, error
// marking, zero-sink no-op), sharded metrics (single-threaded semantics
// and OpenMP merge correctness — the concurrent suites double as the
// TSan targets wired into scripts/check_sanitizers.sh), resource probes,
// the JSON writer/validator, and the versioned run-report schema.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "commdet/cc/connected_components.hpp"
#include "commdet/core/agglomerate.hpp"
#include "commdet/core/detect.hpp"
#include "commdet/gen/rmat.hpp"
#include "commdet/gen/simple_graphs.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/graph/stats.hpp"
#include "commdet/obs/json.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/obs/probes.hpp"
#include "commdet/obs/report.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/platform/platform_info.hpp"
#include "commdet/score/scorers.hpp"
#include "commdet/shard/shard_detect.hpp"
#include "commdet/util/parallel.hpp"

namespace commdet {
namespace {

using V32 = std::int32_t;

// ---------------------------------------------------------------- tracer

TEST(ObsTrace, DisabledByDefaultAndSpansAreNoops) {
  ASSERT_EQ(obs::active_trace(), nullptr);
  obs::ScopedSpan span("orphan");
  EXPECT_FALSE(span.active());
  span.attr("k", std::int64_t{1});  // must not crash or allocate a sink
  span.set_error();
  span.close();
}

TEST(ObsTrace, RecordsNestingAttrsAndThreads) {
  obs::Trace trace;
  {
    obs::TraceSession session(trace);
    obs::ScopedSpan outer("outer");
    EXPECT_TRUE(outer.active());
    outer.attr("count", std::int64_t{7});
    outer.attr("ratio", 0.5);
    outer.attr("label", "abc");
    {
      obs::ScopedSpan inner("inner");
      obs::ScopedSpan innermost("innermost");
    }
    obs::ScopedSpan sibling("sibling");
  }
  ASSERT_EQ(obs::active_trace(), nullptr);  // session uninstalled

  const auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].name, "innermost");
  EXPECT_EQ(spans[2].parent, spans[1].id);
  EXPECT_EQ(spans[3].name, "sibling");
  EXPECT_EQ(spans[3].parent, spans[0].id);  // nesting restored after inner closed

  for (const auto& s : spans) {
    EXPECT_GE(s.end_seconds, s.start_seconds) << s.name;
    EXPECT_GT(s.threads, 0) << s.name;
    EXPECT_FALSE(s.error) << s.name;
  }
  ASSERT_EQ(spans[0].attrs.size(), 3u);
  EXPECT_EQ(spans[0].attrs[0].key, "count");
  EXPECT_EQ(std::get<std::int64_t>(spans[0].attrs[0].value), 7);
  EXPECT_EQ(std::get<double>(spans[0].attrs[1].value), 0.5);
  EXPECT_EQ(std::get<std::string>(spans[0].attrs[2].value), "abc");
}

TEST(ObsTrace, ThrowMarksSpanErrored) {
  obs::Trace trace;
  {
    obs::TraceSession session(trace);
    try {
      obs::ScopedSpan span("failing");
      throw std::runtime_error("boom");
    } catch (const std::runtime_error&) {
    }
    obs::ScopedSpan after("after");
  }
  const auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans[0].error);
  EXPECT_GE(spans[0].end_seconds, spans[0].start_seconds);  // closed during unwind
  EXPECT_FALSE(spans[1].error);
  EXPECT_EQ(spans[1].parent, 0u);  // unwinding restored the parent slot
}

TEST(ObsTrace, ExplicitSetErrorAndIdempotentClose) {
  obs::Trace trace;
  obs::TraceSession session(trace);
  obs::ScopedSpan span("contained");
  span.set_error();
  span.close();
  span.close();  // second close is a no-op
  span.attr("late", std::int64_t{1});  // attrs after close are dropped
  const auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].error);
  EXPECT_TRUE(spans[0].attrs.empty());
}

TEST(ObsTrace, SessionRestoresPreviousSink) {
  obs::Trace first;
  obs::Trace second;
  obs::TraceSession outer(first);
  {
    obs::TraceSession inner(second);
    EXPECT_EQ(obs::active_trace(), &second);
    obs::ScopedSpan span("into-second");
  }
  EXPECT_EQ(obs::active_trace(), &first);
  obs::ScopedSpan span("into-first");
  span.close();
  EXPECT_EQ(second.size(), 1u);
  EXPECT_EQ(first.size(), 1u);
}

TEST(ObsTrace, FormatTraceRendersIndentedTree) {
  obs::Trace trace;
  {
    obs::TraceSession session(trace);
    obs::ScopedSpan outer("outer");
    obs::ScopedSpan inner("inner");
    inner.attr("edges", std::int64_t{42});
  }
  const std::string text = obs::format_trace(trace);
  EXPECT_NE(text.find("outer"), std::string::npos);
  EXPECT_NE(text.find("\n  inner"), std::string::npos);  // child is indented
  EXPECT_NE(text.find("edges=42"), std::string::npos);
  EXPECT_NE(text.find("threads="), std::string::npos);
}

// --------------------------------------------------------------- metrics

TEST(ObsMetrics, CounterAndGaugeSingleThreadSemantics) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("c");
  EXPECT_EQ(c.value(), 0);
  c.add(5);
  c.add(-2);
  EXPECT_EQ(c.value(), 3);

  obs::Gauge& g = reg.gauge("g");
  EXPECT_EQ(g.value(), 0);
  g.record(5);
  g.record(3);
  g.record(9);
  g.record(7);
  EXPECT_EQ(g.value(), 9);
}

TEST(ObsMetrics, RegistryReturnsStableReferences) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("same");
  obs::Counter& b = reg.counter("same");
  EXPECT_EQ(&a, &b);
  a.add(1);
  b.add(1);
  EXPECT_EQ(reg.counter("same").value(), 2);
}

TEST(ObsMetrics, SnapshotMergesAllInstruments) {
  obs::MetricsRegistry reg;
  reg.counter("alpha").add(10);
  reg.gauge("beta").record(20);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.at("alpha"), 10);
  EXPECT_EQ(snap.at("beta"), 20);
}

TEST(ObsMetrics, FreeFunctionsResolveOnlyWhenInstalled) {
  EXPECT_EQ(obs::counter("nope"), nullptr);
  EXPECT_EQ(obs::gauge("nope"), nullptr);
  obs::MetricsRegistry reg;
  {
    obs::MetricsSession session(reg);
    obs::Counter* c = obs::counter("hits");
    ASSERT_NE(c, nullptr);
    c->add(3);
    obs::Gauge* g = obs::gauge("peak");
    ASSERT_NE(g, nullptr);
    g->record(11);
  }
  EXPECT_EQ(obs::counter("hits"), nullptr);  // uninstalled again
  EXPECT_EQ(reg.counter("hits").value(), 3);
  EXPECT_EQ(reg.gauge("peak").value(), 11);
}

// Concurrent suites: the sharded counters' correctness under OpenMP and
// the TSan targets registered in scripts/check_sanitizers.sh.
TEST(ObsMetricsConcurrent, ShardedCounterMergesAllThreads) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("hot");
  const std::int64_t n = 20000 * std::int64_t{parallel_threads()};
  parallel_for(n, [&](std::int64_t) { c.add(1); });
  EXPECT_EQ(c.value(), n);
}

TEST(ObsMetricsConcurrent, GaugeKeepsGlobalMax) {
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("hwm");
  const std::int64_t n = 1000 * std::int64_t{parallel_threads()};
  parallel_for(n, [&](std::int64_t i) { g.record(i); });
  EXPECT_EQ(g.value(), n - 1);
}

TEST(ObsMetricsConcurrent, ConcurrentRegistryLookupsAreSafe) {
  obs::MetricsRegistry reg;
  const int threads = parallel_threads();
  parallel_for(threads, [&](std::int64_t t) {
    // Same-name lookups race on the registry map; each add must land.
    reg.counter("shared").add(1);
    reg.counter("t" + std::to_string(t)).add(1);
  });
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.at("shared"), threads);
  EXPECT_EQ(static_cast<int>(snap.size()), 1 + threads);
}

// ---------------------------------------------------------------- probes

TEST(ObsProbes, ResourceSamplesAreMonotonic) {
  const auto begin = obs::sample_resources();
  // Touch some memory so the counters can only move forward.
  std::vector<std::int64_t> sink(1 << 16, 1);
  volatile std::int64_t total = 0;
  for (const auto v : sink) total = total + v;
  const auto end = obs::sample_resources();
  const auto delta = obs::resource_delta(begin, end);
  EXPECT_GE(delta.minor_faults, 0);
  EXPECT_GE(delta.major_faults, 0);
  EXPECT_GE(delta.voluntary_ctx_switches, 0);
  EXPECT_GE(delta.involuntary_ctx_switches, 0);
  EXPECT_EQ(delta.max_rss_bytes, end.max_rss_bytes);  // high-water, not a diff
#if defined(__linux__)
  EXPECT_GT(obs::rss_high_water_bytes(), 0);
#endif
}

// ------------------------------------------------------------------ json

TEST(ObsJson, WriterProducesCompactDocuments) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("a");
  w.value(std::int64_t{1});
  w.key("b");
  w.begin_array();
  w.value(true);
  w.value("x");
  w.null();
  w.end_array();
  w.key("c");
  w.value(2.5);
  w.end_object();
  EXPECT_EQ(w.take(), R"({"a":1,"b":[true,"x",null],"c":2.5})");
}

TEST(ObsJson, WriterEscapesStrings) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("k");
  w.value(std::string("a\"b\\c\nd\te\x01"));
  w.end_object();
  const std::string doc = w.take();
  EXPECT_EQ(doc, "{\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}");
  EXPECT_TRUE(obs::json_validate(doc));
}

TEST(ObsJson, NonFiniteDoublesBecomeNull) {
  obs::JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(1.0);
  w.end_array();
  const std::string doc = w.take();
  EXPECT_EQ(doc, "[null,null,1]");
  EXPECT_TRUE(obs::json_validate(doc));
}

TEST(ObsJson, ValidatorAcceptsWellFormedDocuments) {
  EXPECT_TRUE(obs::json_validate("{}"));
  EXPECT_TRUE(obs::json_validate("[]"));
  EXPECT_TRUE(obs::json_validate("  {\"a\": [1, -2.5e3, true, false, null]} "));
  EXPECT_TRUE(obs::json_validate("\"just a string\""));
  EXPECT_TRUE(obs::json_validate("{\"nested\":{\"deep\":[{\"x\":0}]}}"));
}

TEST(ObsJson, ValidatorRejectsMalformedDocuments) {
  EXPECT_FALSE(obs::json_validate(""));
  EXPECT_FALSE(obs::json_validate("{"));
  EXPECT_FALSE(obs::json_validate("{} extra"));
  EXPECT_FALSE(obs::json_validate("{\"a\":}"));
  EXPECT_FALSE(obs::json_validate("{\"a\" 1}"));
  EXPECT_FALSE(obs::json_validate("[1,]"));
  EXPECT_FALSE(obs::json_validate("\"unterminated"));
  EXPECT_FALSE(obs::json_validate("nul"));
  EXPECT_FALSE(obs::json_validate("01"));
  EXPECT_FALSE(obs::json_validate("{'a':1}"));
}

// --------------------------------------------------------- distributions

TEST(ObsDistribution, SummarizesKnownValues) {
  const std::vector<std::int64_t> values{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto s = summarize_values(std::span<const std::int64_t>(values));
  EXPECT_EQ(s.count, 10);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 9);
  EXPECT_DOUBLE_EQ(s.mean, 4.5);
  EXPECT_EQ(s.p50, 5);
  EXPECT_EQ(s.p90, 8);
  EXPECT_EQ(s.p99, 9);
  // bit widths: {0}->0, {1}->1, {2,3}->2, {4..7}->3, {8,9}->4
  ASSERT_EQ(s.log2_buckets.size(), 5u);
  EXPECT_EQ(s.log2_buckets[0], 1);
  EXPECT_EQ(s.log2_buckets[1], 1);
  EXPECT_EQ(s.log2_buckets[2], 2);
  EXPECT_EQ(s.log2_buckets[3], 4);
  EXPECT_EQ(s.log2_buckets[4], 2);
}

TEST(ObsDistribution, EmptyInputYieldsZeroSummary) {
  const auto s = summarize_values({});
  EXPECT_EQ(s.count, 0);
  EXPECT_TRUE(s.log2_buckets.empty());
}

TEST(ObsDistribution, CommunitySizesFromLabels) {
  const std::vector<V32> labels{0, 0, 0, 1, 1, 2};
  const auto s =
      community_size_distribution(std::span<const V32>(labels.data(), labels.size()), 3);
  EXPECT_EQ(s.count, 3);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 3);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
}

// --------------------------------------------------------------- reports

/// One observed detection run on a community-rich graph.
struct ObservedRun {
  obs::Trace trace;
  obs::MetricsRegistry metrics;
  CommunityGraph<V32> graph;
  Clustering<V32> clustering;

  ObservedRun() {
    graph = build_community_graph(make_caveman<V32>(64, 8));
    obs::TraceSession ts(trace);
    obs::MetricsSession ms(metrics);
    clustering = agglomerate(CommunityGraph<V32>(graph), ModularityScorer{});
  }
};

TEST(ObsReport, InstrumentedRunTracesEveryPhase) {
  ObservedRun run;
  ASSERT_FALSE(run.clustering.levels.empty());

  const auto spans = run.trace.spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].name, "agglomerate");
  std::size_t levels = 0, scores = 0, matches = 0, contracts = 0;
  for (const auto& s : spans) {
    EXPECT_GE(s.end_seconds, 0.0) << s.name << " left open";
    EXPECT_FALSE(s.error) << s.name;
    if (s.name == "level") {
      ++levels;
      EXPECT_EQ(s.parent, spans[0].id);
    } else if (s.name == "score" || s.name == "match" || s.name == "contract") {
      scores += s.name == "score";
      matches += s.name == "match";
      contracts += s.name == "contract";
      // Phases hang off a level span, never the root.
      const auto& parent = spans[s.parent - 1];
      EXPECT_EQ(parent.name, "level");
    }
  }
  // Every completed level scored, matched, and contracted exactly once;
  // a trailing local-maximum probe may add one extra score span.
  const auto completed = run.clustering.levels.size();
  EXPECT_GE(levels, completed);
  EXPECT_GE(scores, completed);
  EXPECT_EQ(matches, contracts);

  const auto snap = run.metrics.snapshot();
  EXPECT_GT(snap.at("score.edges_scored"), 0);
  EXPECT_GT(snap.at("match.proposals"), 0);
  EXPECT_GT(snap.at("contract.edges_in"), 0);
  ASSERT_TRUE(snap.contains("agglomerate.rss_hwm_bytes"));
}

TEST(ObsReport, ContractAndBuildSpansReportFreshBytes) {
  // fresh_bytes is what a pass's arrays grew their capacity by.  The
  // build sizes a new graph; through detect_communities level 1 reads
  // the caller's graph and level 2 has no spare yet, so both allocate,
  // while every later level fits the retired graph it recycles.  The
  // by-value driver recycles its input from level 2 on.
  RmatParams p;
  p.scale = 14;
  p.edge_factor = 8;
  const auto el = generate_rmat<V32>(p);
  const auto fresh_bytes_of = [](const obs::Trace& trace, std::string_view name) {
    std::vector<std::int64_t> out;
    for (const auto& s : trace.spans()) {
      if (s.name != name) continue;
      const auto attr = std::find_if(s.attrs.begin(), s.attrs.end(),
                                     [](const obs::Attr& a) { return a.key == "fresh_bytes"; });
      EXPECT_NE(attr, s.attrs.end()) << name << " span without fresh_bytes";
      if (attr != s.attrs.end()) out.push_back(std::get<std::int64_t>(attr->value));
    }
    return out;
  };

  CommunityGraph<V32> g;
  {
    obs::Trace trace;
    obs::TraceSession ts(trace);
    g = build_community_graph(el);
    const auto build = fresh_bytes_of(trace, "graph.build");
    ASSERT_EQ(build.size(), 1u);
    const auto capacity = g.capacity_bytes();
    EXPECT_EQ(build[0], std::accumulate(capacity.begin(), capacity.end(), std::int64_t{0}));
  }
  {
    obs::Trace trace;
    obs::TraceSession ts(trace);
    const auto result = detect_communities(g);
    const auto contract = fresh_bytes_of(trace, "contract");
    ASSERT_GE(contract.size(), 3u);
    EXPECT_EQ(contract.size(), result.levels.size());
    EXPECT_GT(contract[0], 0);
    EXPECT_GT(contract[1], 0);
    for (std::size_t k = 2; k < contract.size(); ++k)
      EXPECT_EQ(contract[k], 0) << "level " << k + 1 << " outgrew its spare";
  }
  {
    obs::Trace trace;
    obs::TraceSession ts(trace);
    (void)agglomerate(CommunityGraph<V32>(g), ModularityScorer{});
    const auto contract = fresh_bytes_of(trace, "contract");
    ASSERT_GE(contract.size(), 2u);
    EXPECT_GT(contract[0], 0);
    for (std::size_t k = 1; k < contract.size(); ++k)
      EXPECT_EQ(contract[k], 0) << "level " << k + 1 << " outgrew its spare";
  }
}

TEST(ObsReport, KernelSpansAndCountersExplainSortAndMatchWork) {
  // Every contract.sort span says how many buckets took the dense-key
  // path, and match.edges_scanned counts the bucket entries the matcher
  // rescanned: at least every edge of the first level's first sweep.
  ObservedRun run;
  std::size_t sort_spans = 0;
  std::int64_t dense_buckets = 0;
  for (const auto& s : run.trace.spans()) {
    if (s.name != "contract.sort") continue;
    ++sort_spans;
    const auto attr = std::find_if(s.attrs.begin(), s.attrs.end(),
                                   [](const obs::Attr& a) { return a.key == "dense_buckets"; });
    ASSERT_NE(attr, s.attrs.end());
    dense_buckets += std::get<std::int64_t>(attr->value);
  }
  EXPECT_EQ(sort_spans, run.clustering.levels.size());
  EXPECT_GT(dense_buckets, 0) << "caveman cliques pack each bucket into one word";
  EXPECT_GE(run.metrics.snapshot().at("match.edges_scanned"), run.graph.num_edges());

  // The sharded driver runs the same contraction kernel block by block,
  // so its trace carries the same sub-pass spans: one count per level,
  // and (in core, one destination group) one scatter, sort and copy.
  // Each matched pair's edge folds into a self weight exactly once.
  obs::Trace trace;
  obs::MetricsRegistry metrics;
  Clustering<V32> sharded;
  {
    obs::TraceSession ts(trace);
    obs::MetricsSession ms(metrics);
    sharded = sharded_agglomerate(partition_graph(run.graph, 3), ModularityScorer{});
  }
  ASSERT_FALSE(sharded.levels.empty());
  std::map<std::string, std::size_t> sub_passes;
  const auto spans = trace.spans();
  for (const auto& s : spans) {
    if (!s.name.starts_with("contract.")) continue;
    ++sub_passes[s.name];
    EXPECT_EQ(spans[s.parent - 1].name, "contract") << s.name;
    if (s.name == "contract.sort") {
      EXPECT_NE(std::find_if(s.attrs.begin(), s.attrs.end(),
                             [](const obs::Attr& a) { return a.key == "dense_buckets"; }),
                s.attrs.end());
    }
  }
  for (const char* name :
       {"contract.count", "contract.scatter", "contract.sort", "contract.copy"})
    EXPECT_EQ(sub_passes[name], sharded.levels.size()) << name;
  std::int64_t pairs = 0;
  for (const auto& level : sharded.levels) pairs += level.pairs_matched;
  EXPECT_EQ(metrics.snapshot().at("contract.self_edges_folded"), pairs);
}

TEST(ObsReport, SetUpSpansExplainBuildAndLeaveContractMetricsAlone) {
  // Largest component and graph build trace their passes, each with an
  // edge count.  The build runs the contraction kernel's passes but is
  // not a contraction: it emits no contract.* span or metric, although
  // its count pass folds self-loops.
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 8;
  auto raw = generate_rmat<V32>(p);
  for (V32 v = 0; v < 50; ++v) raw.add(v, v, 2);
  obs::Trace trace;
  obs::MetricsRegistry metrics;
  CommunityGraph<V32> g;
  {
    obs::TraceSession ts(trace);
    obs::MetricsSession ms(metrics);
    g = build_community_graph(largest_component(raw));
  }
  ASSERT_GT(std::reduce(g.self_weight.begin(), g.self_weight.end()), 0);
  const auto spans = trace.spans();
  std::map<std::string, std::int64_t> edges;
  for (const auto& s : spans) {
    EXPECT_FALSE(s.name.starts_with("contract")) << s.name;
    const auto attr = std::find_if(s.attrs.begin(), s.attrs.end(),
                                   [](const obs::Attr& a) { return a.key == "edges"; });
    ASSERT_NE(attr, s.attrs.end()) << s.name;
    edges[s.name] = std::get<std::int64_t>(attr->value);
    if (s.name.starts_with("graph.build.")) {
      EXPECT_EQ(spans[s.parent - 1].name, "graph.build") << s.name;
    }
  }
  EXPECT_EQ(edges.at("cc.union_find"), raw.num_edges());
  EXPECT_LT(edges.at("cc.extract"), raw.num_edges());
  EXPECT_EQ(edges.at("graph.build"), edges.at("cc.extract"));
  EXPECT_EQ(edges.at("graph.build.count"), edges.at("cc.extract"));
  EXPECT_LE(edges.at("graph.build.scatter"), edges.at("graph.build.count"));
  EXPECT_EQ(edges.at("graph.build.sort"), edges.at("graph.build.scatter"));
  EXPECT_EQ(edges.at("graph.build.copy"), g.num_edges());
  EXPECT_EQ(edges.size(), 7u);
  for (const auto& [name, value] : metrics.snapshot())
    EXPECT_FALSE(name.starts_with("contract.")) << name << " = " << value;
}

TEST(ObsReport, DetectionReportValidatesAndCarriesSchema) {
  ObservedRun run;
  const auto platform = detect_platform();
  const auto stats = graph_stats(run.graph);
  const auto degree = degree_distribution(run.graph);
  const auto sizes = community_size_distribution(
      std::span<const V32>(run.clustering.community.data(),
                           run.clustering.community.size()),
      run.clustering.num_communities);
  const auto resources = obs::sample_resources();

  obs::RunReportInputs in;
  in.platform = &platform;
  in.graph = &stats;
  in.degree = &degree;
  in.community_sizes = &sizes;
  in.trace = &run.trace;
  in.metrics = &run.metrics;
  in.resources = &resources;
  in.info = {{"graph", "caveman-64x8"}, {"scorer", "modularity"}};

  const std::string doc = obs::run_report_json(run.clustering, in);
  ASSERT_TRUE(obs::json_validate(doc)) << doc;

  // Schema-pinning: renaming any of these keys requires a version bump.
  for (const char* key :
       {"\"schema\":\"commdet-run-report\"", "\"schema_version\":1",
        "\"kind\":\"detection\"", "\"threads\":", "\"info\":", "\"platform\":",
        "\"thp_mode\":",
        "\"graph\":", "\"num_vertices\":", "\"degree_distribution\":",
        "\"result\":", "\"num_communities\":", "\"modularity\":", "\"coverage\":",
        "\"termination\":", "\"degraded\":false", "\"error\":null",
        "\"community_size_distribution\":", "\"levels\":", "\"failed_level\":null",
        "\"metrics\":", "\"score.edges_scored\":", "\"resources\":",
        "\"max_rss_bytes\":", "\"trace\":", "\"name\":\"agglomerate\"",
        "\"log2_buckets\":", "\"telemetry\":null"}) {
    EXPECT_NE(doc.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(ObsReport, MinimalReportStillValidates) {
  ObservedRun run;
  const std::string doc = obs::run_report_json(run.clustering);
  ASSERT_TRUE(obs::json_validate(doc)) << doc;
  EXPECT_NE(doc.find("\"platform\":null"), std::string::npos);
  EXPECT_NE(doc.find("\"graph\":null"), std::string::npos);
  EXPECT_NE(doc.find("\"trace\":[]"), std::string::npos);
  EXPECT_NE(doc.find("\"telemetry\":null"), std::string::npos);
}

TEST(ObsReport, BenchReportSharesTheEnvelope) {
  std::vector<obs::BenchRow> rows;
  rows.push_back({"rmat-17-8", 4, 0, 1.25, {{"modularity", 0.5}}});
  rows.push_back({"rmat-17-8", 4, 1, 1.5, {}});
  obs::RunReportInputs in;
  in.info = {{"tool", "bench_fig1_time"}};
  const std::string doc = obs::bench_report_json(rows, in);
  ASSERT_TRUE(obs::json_validate(doc)) << doc;
  for (const char* key :
       {"\"schema\":\"commdet-run-report\"", "\"schema_version\":1",
        "\"kind\":\"bench\"", "\"graph\":null", "\"result\":null", "\"rows\":",
        "\"series\":\"rmat-17-8\"", "\"threads\":4", "\"trial\":1",
        "\"modularity\":0.5", "\"metrics\":{}", "\"resources\":"}) {
    EXPECT_NE(doc.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(ObsReport, LevelsCsvHeaderIsPinned) {
  ObservedRun run;
  const std::string csv = obs::levels_csv(run.clustering);
  const auto first_newline = csv.find('\n');
  ASSERT_NE(first_newline, std::string::npos);
  EXPECT_EQ(csv.substr(0, first_newline),
            "level,nv_before,ne_before,positive_edges,max_score,pairs_matched,"
            "match_sweeps,nv_after,ne_after,coverage,modularity,score_seconds,"
            "match_seconds,contract_seconds,status");
  // One row per completed level, each marked completed.
  std::size_t data_rows = 0;
  for (auto pos = first_newline; pos != std::string::npos && pos + 1 < csv.size();
       pos = csv.find('\n', pos + 1))
    ++data_rows;
  EXPECT_EQ(data_rows, run.clustering.levels.size());
  EXPECT_NE(csv.find(",completed\n"), std::string::npos);
  EXPECT_EQ(csv.find(",failed\n"), std::string::npos);
}

TEST(ObsReport, WriteTextFileRoundTripsAndReportsFailure) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("commdet_obs_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto path = (dir / "report.json").string();
  obs::write_text_file(path, "{\"ok\":true}");
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "{\"ok\":true}");
  std::filesystem::remove_all(dir);

  EXPECT_THROW(obs::write_text_file((dir / "missing" / "x.json").string(), "{}"),
               CommdetError);
}

}  // namespace
}  // namespace commdet
