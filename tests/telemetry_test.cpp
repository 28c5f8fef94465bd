// Telemetry-layer tests: the sharded log2 histogram (bucket geometry,
// percentile edge cases, and a parallel-loop merge property test against a
// serial reference — the concurrent suite doubles as a TSan target in
// scripts/check_sanitizers.sh), the bounded JSONL event log (rotation,
// torn tails, install slot), the TelemetryHub renderings (Prometheus
// exposition well-formedness and the commdet-telemetry v1 JSON), and
// the METRICS protocol verb answered in-process by writer and follower
// sessions, including the slow-query and batch event paths.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "commdet/graph/builder.hpp"
#include "commdet/obs/eventlog.hpp"
#include "commdet/obs/histogram.hpp"
#include "commdet/obs/json.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/obs/report.hpp"
#include "commdet/obs/telemetry.hpp"
#include "commdet/serve/follower.hpp"
#include "commdet/serve/service.hpp"
#include "commdet/serve/session.hpp"
#include "commdet/util/parallel.hpp"

namespace commdet {
namespace {

using V32 = std::int32_t;

[[nodiscard]] std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

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

[[nodiscard]] serve::ServeOptions fast_options(const std::string& dir) {
  serve::ServeOptions o;
  o.dir = dir;
  o.batch_max_deltas = 4;
  o.batch_max_delay_seconds = 0.25;
  o.save_every_batches = 0;
  o.fsync_wal = false;
  return o;
}

// ---------------------------------------------------------------------------
// TelemetryHistogram: bucket geometry, percentiles, concurrent merge

TEST(TelemetryHistogram, BucketGeometryCoversInt64) {
  using S = obs::HistogramSnapshot;
  EXPECT_EQ(S::bucket_index(-5), 0);
  EXPECT_EQ(S::bucket_index(0), 0);
  EXPECT_EQ(S::bucket_index(1), 1);
  EXPECT_EQ(S::bucket_index(2), 2);
  EXPECT_EQ(S::bucket_index(3), 2);
  EXPECT_EQ(S::bucket_index(4), 3);
  EXPECT_EQ(S::bucket_upper(0), 0);
  EXPECT_EQ(S::bucket_upper(1), 1);
  EXPECT_EQ(S::bucket_upper(2), 3);
  EXPECT_EQ(S::bucket_upper(10), 1023);
  EXPECT_EQ(S::bucket_upper(obs::kHistogramBuckets - 1),
            std::numeric_limits<std::int64_t>::max());
  // Every positive value lies in (upper(i-1), upper(i)] of its bucket.
  for (const std::int64_t v : {std::int64_t{1}, std::int64_t{7}, std::int64_t{8},
                               std::int64_t{1000}, std::int64_t{1} << 40,
                               std::numeric_limits<std::int64_t>::max()}) {
    const int i = S::bucket_index(v);
    EXPECT_LE(v, S::bucket_upper(i)) << v;
    EXPECT_GT(v, S::bucket_upper(i - 1)) << v;
  }
  EXPECT_EQ(S::bucket_index(std::numeric_limits<std::int64_t>::max()),
            obs::kHistogramBuckets - 1);
}

TEST(TelemetryHistogram, PercentileEdgeCases) {
  obs::Histogram h;
  // Empty: everything reads zero.
  obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.percentile(0.5), 0);
  EXPECT_EQ(s.percentile(1.0), 0);
  EXPECT_EQ(s.mean(), 0.0);

  // Single sample: every percentile is its bucket's upper bound.
  h.record(100);  // bucket 7, upper 127
  s = h.snapshot();
  EXPECT_EQ(s.count(), 1);
  EXPECT_EQ(s.percentile(0.0), 127);
  EXPECT_EQ(s.percentile(0.5), 127);
  EXPECT_EQ(s.percentile(1.0), 127);
  EXPECT_EQ(s.mean(), 100.0);

  // Overflow bucket: INT64_MAX is representable, nothing is dropped.
  h.record(std::numeric_limits<std::int64_t>::max());
  s = h.snapshot();
  EXPECT_EQ(s.count(), 2);
  EXPECT_EQ(s.percentile(0.5), 127);
  EXPECT_EQ(s.percentile(1.0), std::numeric_limits<std::int64_t>::max());

  // Negative values clamp into bucket 0 and do not perturb the sum.
  obs::Histogram neg;
  neg.record(-42);
  s = neg.snapshot();
  EXPECT_EQ(s.count(), 1);
  EXPECT_EQ(s.sum, 0);
  EXPECT_EQ(s.percentile(1.0), 0);
}

TEST(TelemetryHistogram, RecordSecondsConvertsToMicroseconds) {
  obs::Histogram h;
  h.record_seconds(1e-3);   // 1000 us -> bucket upper 1023
  h.record_seconds(0.0);    // bucket 0
  h.record_seconds(-1.0);   // clamps to bucket 0
  h.record_seconds(1e100);  // clamps to INT64_MAX, not UB
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count(), 4);
  EXPECT_EQ(s.buckets[0], 2);
  EXPECT_EQ(s.buckets[10], 1);  // 1000 us
  EXPECT_EQ(s.buckets[obs::kHistogramBuckets - 1], 1);
}

TEST(TelemetryHistogram, SnapshotMergeIsExact) {
  obs::Histogram a;
  obs::Histogram b;
  a.record(5);
  a.record(700);
  b.record(700);
  b.record(1 << 20);
  obs::HistogramSnapshot sa = a.snapshot();
  const obs::HistogramSnapshot sb = b.snapshot();
  sa.merge(sb);
  EXPECT_EQ(sa.count(), 4);
  EXPECT_EQ(sa.sum, 5 + 700 + 700 + (1 << 20));
  EXPECT_EQ(sa.buckets[obs::HistogramSnapshot::bucket_index(700)], 2);
}

// Property test: concurrent recording from a parallel loop merges to
// exactly the counts a serial reference computes from the same values.
// This suite runs under TSan via scripts/check_sanitizers.sh.
TEST(TelemetryHistogramConcurrent, ParallelRecordMatchesSerialReference) {
  constexpr int kPerThread = 20000;
  const int threads = std::max(2, parallel_threads());
  std::vector<std::vector<std::int64_t>> values(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    std::mt19937_64 rng(0xC0FFEE + static_cast<std::uint64_t>(t));
    values[static_cast<std::size_t>(t)].reserve(kPerThread);
    for (int i = 0; i < kPerThread; ++i) {
      // Exercise every regime: bucket 0, small, large, overflow.
      const int shift = static_cast<int>(rng() % 64);
      const std::int64_t v =
          static_cast<std::int64_t>(rng() >> shift) - (i % 97 == 0 ? 1000000 : 0);
      values[static_cast<std::size_t>(t)].push_back(v);
    }
  }

  obs::Histogram h;
  parallel_for(threads, [&](std::int64_t t) {
    for (const std::int64_t v : values[static_cast<std::size_t>(t)]) h.record(v);
  });

  // The sum wraps like the histogram's: add in uint64, convert once.
  obs::HistogramSnapshot expect;
  std::uint64_t expect_sum = 0;
  for (const auto& vs : values)
    for (const std::int64_t v : vs) {
      ++expect.buckets[static_cast<std::size_t>(obs::HistogramSnapshot::bucket_index(v))];
      expect_sum += static_cast<std::uint64_t>(v > 0 ? v : 0);
    }
  expect.sum = static_cast<std::int64_t>(expect_sum);

  const obs::HistogramSnapshot got = h.snapshot();
  EXPECT_EQ(got.sum, expect.sum);
  EXPECT_EQ(got.count(), static_cast<std::int64_t>(threads) * kPerThread);
  for (int i = 0; i < obs::kHistogramBuckets; ++i)
    EXPECT_EQ(got.buckets[static_cast<std::size_t>(i)],
              expect.buckets[static_cast<std::size_t>(i)])
        << "bucket " << i;
}

TEST(TelemetryHistogramConcurrent, RegistryHistogramSharedAcrossThreads) {
  obs::MetricsRegistry reg;
  obs::MetricsSession session(reg);
  ASSERT_NE(obs::histogram("t.lat_us"), nullptr);
  // Plain std::threads: recorders outside any OpenMP team share the
  // registry's histogram too.
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([] {
      obs::Histogram* h = obs::histogram("t.lat_us");
      for (int i = 0; i < 1000; ++i) h->record(i);
    });
  for (auto& w : workers) w.join();
  const auto all = reg.snapshot_histograms();
  const auto it = all.find("t.lat_us");
  ASSERT_NE(it, all.end());
  EXPECT_EQ(it->second.count(), 4000);
}

TEST(TelemetryHistogram, LookupIsNullWhenDisabled) {
  EXPECT_EQ(obs::histogram("nobody.home"), nullptr);
}

// ---------------------------------------------------------------------------
// TelemetryEventLog: JSONL validity, rotation, torn tails, install slot

TEST(TelemetryEventLog, AppendedLinesAreValidJson) {
  const std::string dir = fresh_dir("ev_basic");
  std::filesystem::create_directories(dir);
  obs::EventLogOptions opts;
  opts.path = dir + "/events.jsonl";
  obs::EventLog log(opts);
  ASSERT_TRUE(log.append("batch_commit", 3,
                         {obs::EventField::of("deltas", std::int64_t{128}),
                          obs::EventField::of("total_us", 41.5),
                          obs::EventField::of("note", std::string_view("ok"))}));
  ASSERT_TRUE(log.append("wal_rotate", 3));
  EXPECT_EQ(log.events_appended(), 2);
  EXPECT_GT(log.last_event_unix(), 0.0);

  const auto lines = obs::read_events(opts.path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"type\":\"batch_commit\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"epoch\":3"), std::string::npos);
  EXPECT_NE(lines[0].find("\"deltas\":128"), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\":\"wal_rotate\""), std::string::npos);
  for (const auto& l : lines) EXPECT_TRUE(obs::json_validate(l)) << l;
  std::filesystem::remove_all(dir);
}

TEST(TelemetryEventLog, SizeRotationKeepsBoundedFiles) {
  const std::string dir = fresh_dir("ev_rotate");
  std::filesystem::create_directories(dir);
  obs::EventLogOptions opts;
  opts.path = dir + "/events.jsonl";
  opts.max_bytes = 256;
  opts.max_files = 3;
  obs::EventLog log(opts);
  for (int i = 0; i < 200; ++i)
    ASSERT_TRUE(log.append("tick", i, {obs::EventField::of("i", std::int64_t{i})}));

  EXPECT_TRUE(std::filesystem::exists(opts.path));
  EXPECT_TRUE(std::filesystem::exists(opts.path + ".1"));
  EXPECT_FALSE(std::filesystem::exists(opts.path + ".3"));  // bounded at max_files
  EXPECT_LE(std::filesystem::file_size(opts.path), opts.max_bytes);
  // Every surviving file reads back as complete JSONL.
  std::size_t total = obs::read_events(opts.path).size();
  for (int i = 1; i < opts.max_files; ++i) {
    const std::string rotated = opts.path + "." + std::to_string(i);
    if (std::filesystem::exists(rotated)) total += obs::read_events(rotated).size();
  }
  EXPECT_GT(total, 0u);
  EXPECT_LE(total, 200u);
  std::filesystem::remove_all(dir);
}

TEST(TelemetryEventLog, ReaderToleratesTornTail) {
  const std::string dir = fresh_dir("ev_torn");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/events.jsonl";

  {  // Unterminated tail: dropped, prefix kept.
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("{\"ts\":1.0,\"type\":\"a\",\"epoch\":1}\n{\"ts\":2.0,\"ty", f);
    std::fclose(f);
    const auto lines = obs::read_events(path);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"type\":\"a\""), std::string::npos);
  }
  {  // Terminated but json-invalid tail: also torn, also dropped.
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("{\"ts\":1.0,\"type\":\"a\",\"epoch\":1}\n{\"broken\n", f);
    std::fclose(f);
    EXPECT_EQ(obs::read_events(path).size(), 1u);
  }
  {  // Garbage mid-file is corruption: the read stops there.
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("{\"ts\":1.0,\"type\":\"a\",\"epoch\":1}\nnot json\n"
               "{\"ts\":3.0,\"type\":\"c\",\"epoch\":3}\n",
               f);
    std::fclose(f);
    EXPECT_EQ(obs::read_events(path).size(), 1u);
  }
  EXPECT_TRUE(obs::read_events(dir + "/missing.jsonl").empty());

  // A restarted log appends after the existing bytes (no overwrite).
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("{\"ts\":1.0,\"type\":\"a\",\"epoch\":1}\n", f);
    std::fclose(f);
    obs::EventLogOptions opts;
    opts.path = path;
    obs::EventLog log(opts);
    ASSERT_TRUE(log.append("b", 2));
    EXPECT_EQ(obs::read_events(path).size(), 2u);
  }
  std::filesystem::remove_all(dir);
}

TEST(TelemetryEventLog, InstallSlotAndCursor) {
  EXPECT_EQ(obs::active_eventlog(), nullptr);
  obs::log_event("ignored", 0);  // no-op when nothing is installed

  const std::string dir = fresh_dir("ev_slot");
  std::filesystem::create_directories(dir);
  obs::EventLogOptions opts;
  opts.path = dir + "/events.jsonl";
  obs::EventLog log(opts);
  {
    obs::EventLogSession session(log);
    EXPECT_EQ(obs::active_eventlog(), &log);
    obs::log_event("seen", 7, {obs::EventField::of("k", std::int64_t{1})});
    EXPECT_EQ(log.events_appended(), 1);
  }
  EXPECT_EQ(obs::active_eventlog(), nullptr);
  obs::log_event("ignored-again", 0);
  EXPECT_EQ(log.events_appended(), 1);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// TelemetryExposition: Prometheus text format + commdet-telemetry JSON

[[nodiscard]] obs::TelemetrySnapshot sample_snapshot() {
  obs::TelemetrySnapshot snap;
  snap.unix_time = 1754640000.125;
  snap.counters["serve.batches"] = 12;
  snap.counters["serve.repl.link.shed {endpoint=\"a.sock\"}"] = 1;
  snap.gauges["serve.epoch"] = 12;
  snap.set_gauge("serve.ingest.deltas_per_second", 321.5);
  obs::Histogram h;
  h.record(3);
  h.record(900);
  h.record(900);
  snap.histograms["serve.batch.total_us"] = h.snapshot();
  snap.events_appended = 5;
  snap.last_event_unix = 1754640000.0;
  return snap;
}

// Minimal exposition parser: every non-comment line is "name[{labels}] value",
// values parse as doubles, cumulative buckets are monotone, TYPE precedes use.
TEST(TelemetryExposition, PrometheusTextIsWellFormed) {
  const std::string text = obs::to_prometheus(sample_snapshot());
  std::map<std::string, double> values;
  std::map<std::string, std::string> types;
  std::vector<std::pair<std::string, double>> buckets;  // le -> cumulative
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kw, family, type;
      ls >> hash >> kw >> family >> type;
      ASSERT_EQ(kw, "TYPE") << line;
      ASSERT_TRUE(type == "counter" || type == "gauge" || type == "histogram") << line;
      ASSERT_EQ(types.count(family), 0u) << "duplicate TYPE for " << family;
      types[family] = type;
      continue;
    }
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string series = line.substr(0, sp);
    const double value = std::stod(line.substr(sp + 1));
    values[series] = value;
    // The family (name up to '{') must have been TYPE-declared already,
    // modulo the _bucket/_sum/_count suffixes of a histogram.
    std::string name = series.substr(0, series.find('{'));
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s(suffix);
      if (name.size() > s.size() && name.compare(name.size() - s.size(), s.size(), s) == 0 &&
          types.count(name.substr(0, name.size() - s.size())) != 0u)
        name = name.substr(0, name.size() - s.size());
    }
    ASSERT_NE(types.count(name), 0u) << "no TYPE line before " << line;
    EXPECT_EQ(name.rfind("commdet_", 0), 0u) << line;
    if (series.find("_bucket{") != std::string::npos)
      buckets.emplace_back(series, value);
  }

  EXPECT_EQ(values.at("commdet_serve_batches_total"), 12);
  EXPECT_EQ(values.at("commdet_serve_repl_link_shed_total{endpoint=\"a.sock\"}"), 1);
  EXPECT_EQ(values.at("commdet_serve_epoch"), 12);
  EXPECT_EQ(values.at("commdet_serve_ingest_deltas_per_second"), 321.5);
  EXPECT_EQ(values.at("commdet_serve_batch_total_us_count"), 3);
  EXPECT_EQ(values.at("commdet_serve_batch_total_us_sum"), 3 + 900 + 900);
  EXPECT_EQ(values.at("commdet_serve_batch_total_us_bucket{le=\"+Inf\"}"), 3);
  EXPECT_EQ(values.at("commdet_events_appended_total"), 5);

  // Cumulative buckets are non-decreasing and end at the +Inf count.
  ASSERT_GE(buckets.size(), 2u);
  for (std::size_t i = 1; i < buckets.size(); ++i)
    EXPECT_GE(buckets[i].second, buckets[i - 1].second) << buckets[i].first;
  EXPECT_EQ(buckets.back().first, "commdet_serve_batch_total_us_bucket{le=\"+Inf\"}");
}

TEST(TelemetryExposition, JsonRenderingValidatesAndRoundTrips) {
  const obs::TelemetrySnapshot snap = sample_snapshot();
  const std::string doc = obs::to_json(snap);
  ASSERT_TRUE(obs::json_validate(doc)) << doc;
  EXPECT_EQ(doc.find('\n'), std::string::npos);  // one line: fits the protocol
  for (const char* key :
       {"\"schema\":\"commdet-telemetry\"", "\"version\":1", "\"unix_time\":",
        "\"counters\":", "\"serve.batches\":12", "\"gauges\":", "\"serve.epoch\":12",
        "\"histograms\":", "\"serve.batch.total_us\":", "\"count\":3", "\"p50\":",
        "\"p99\":", "\"buckets\":[[", "\"events\":{\"appended\":5"}) {
    EXPECT_NE(doc.find(key), std::string::npos) << "missing " << key;
  }

  // No event log: the events object is null, not absent.
  obs::TelemetrySnapshot bare;
  const std::string bare_doc = obs::to_json(bare);
  ASSERT_TRUE(obs::json_validate(bare_doc));
  EXPECT_NE(bare_doc.find("\"events\":null"), std::string::npos);
}

TEST(TelemetryExposition, HubCollectsInstalledRegistryAndEventLog) {
  obs::MetricsRegistry reg;
  obs::MetricsSession metrics_session(reg);
  const std::string dir = fresh_dir("hub_collect");
  std::filesystem::create_directories(dir);
  obs::EventLogOptions opts;
  opts.path = dir + "/events.jsonl";
  obs::EventLog log(opts);
  obs::EventLogSession event_session(log);

  obs::counter("c.x")->add(4);
  obs::histogram("h.y_us")->record(10);
  obs::log_event("something", 1);

  const obs::TelemetrySnapshot snap = obs::TelemetryHub().collect();
  EXPECT_EQ(snap.counters.at("c.x"), 4);
  EXPECT_EQ(snap.histograms.at("h.y_us").count(), 1);
  EXPECT_EQ(snap.events_appended, 1);
  EXPECT_GT(snap.unix_time, 0.0);
  std::filesystem::remove_all(dir);
}

TEST(TelemetryExposition, RunReportCarriesTelemetryObject) {
  obs::TelemetrySnapshot snap = sample_snapshot();
  Clustering<V32> clustering;
  obs::RunReportInputs in;
  in.telemetry = &snap;
  const std::string doc = obs::run_report_json(clustering, in);
  ASSERT_TRUE(obs::json_validate(doc)) << doc;
  EXPECT_NE(doc.find("\"telemetry\":{\"schema\":\"commdet-telemetry\""),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// TelemetryServe: the METRICS verb and event paths, driven in-process

TEST(TelemetryServe, WriterSessionAnswersMetrics) {
  obs::MetricsRegistry reg;
  obs::MetricsSession metrics_session(reg);
  const std::string dir = fresh_dir("tel_writer");
  auto svc = serve::CommunityService<V32>::create(
      build_community_graph(two_cliques<V32>(6)), fast_options(dir));
  ASSERT_TRUE(svc.has_value()) << svc.error().message();
  serve::Session<V32> sess(**svc, "test");
  sess.handle_line("+ 0 6 5");
  ASSERT_EQ(*sess.handle_line("COMMIT").line, "OK 1");
  sess.handle_line("GET 0");

  auto r = sess.handle_line("METRICS");
  ASSERT_TRUE(r.line.has_value());
  ASSERT_EQ(r.line->rfind("OK METRICS ", 0), 0u) << *r.line;
  const std::size_t nl = r.line->find('\n');
  ASSERT_NE(nl, std::string::npos);
  const int advertised = std::stoi(r.line->substr(11, nl - 11));
  const std::string payload = r.line->substr(nl + 1);
  // The daemon's writer appends the final newline; counted here.
  int lines = 1;
  for (const char c : payload)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, advertised);
  for (const char* want :
       {"commdet_serve_batches_total 1", "commdet_serve_deltas_applied_total 1",
        "commdet_serve_epoch 1", "commdet_serve_batch_total_us_bucket",
        "commdet_serve_batch_wal_append_us_", "commdet_serve_batch_apply_us_",
        "commdet_serve_batch_publish_us_", "commdet_serve_query_GET_us_",
        "commdet_serve_ingest_deltas_per_second "}) {
    EXPECT_NE(payload.find(want), std::string::npos) << "missing " << want;
  }

  r = sess.handle_line("METRICS json");
  ASSERT_TRUE(r.line.has_value());
  ASSERT_EQ(r.line->rfind("OK {", 0), 0u) << *r.line;
  EXPECT_TRUE(obs::json_validate(std::string_view(*r.line).substr(3)));
  EXPECT_NE(r.line->find("\"schema\":\"commdet-telemetry\""), std::string::npos);

  r = sess.handle_line("METRICS yaml");
  EXPECT_EQ(r.line->rfind("ERR ", 0), 0u) << *r.line;
  (*svc)->shutdown();
  std::filesystem::remove_all(dir);
}

TEST(TelemetryServe, MetricsStillAnswersWithTelemetryDisabled) {
  const std::string dir = fresh_dir("tel_disabled");
  auto svc = serve::CommunityService<V32>::create(
      build_community_graph(two_cliques<V32>(6)), fast_options(dir));
  ASSERT_TRUE(svc.has_value());
  serve::Session<V32> sess(**svc, "test");
  sess.handle_line("+ 0 6 5");
  ASSERT_EQ(*sess.handle_line("COMMIT").line, "OK 1");
  const auto r = sess.handle_line("METRICS");
  ASSERT_TRUE(r.line.has_value());
  ASSERT_EQ(r.line->rfind("OK METRICS ", 0), 0u) << *r.line;
  // No registry installed: live gauges still answer.
  EXPECT_NE(r.line->find("commdet_serve_epoch 1"), std::string::npos);
  (*svc)->shutdown();
  std::filesystem::remove_all(dir);
}

TEST(TelemetryServe, FollowerSessionAnswersMetrics) {
  const std::string dir = fresh_dir("tel_follower");
  serve::FollowerOptions fopts;
  fopts.dir = dir;
  fopts.fsync_wal = false;
  auto fol = serve::FollowerService<V32>::open(fopts);
  ASSERT_TRUE(fol.has_value()) << fol.error().message();
  serve::Session<V32> sess(**fol, "test");
  const auto r = sess.handle_line("METRICS");
  ASSERT_TRUE(r.line.has_value());
  ASSERT_EQ(r.line->rfind("OK METRICS ", 0), 0u) << *r.line;
  EXPECT_NE(r.line->find("commdet_serve_follower_lag_records"), std::string::npos);
  const auto j = sess.handle_line("METRICS json");
  ASSERT_EQ(j.line->rfind("OK {", 0), 0u) << *j.line;
  EXPECT_TRUE(obs::json_validate(std::string_view(*j.line).substr(3)));
  std::filesystem::remove_all(dir);
}

TEST(TelemetryServe, SlowQueryAndBatchEventsAreLogged) {
  const std::string dir = fresh_dir("tel_events");
  std::filesystem::create_directories(dir);
  obs::EventLogOptions opts;
  opts.path = dir + "/events.jsonl";
  obs::EventLog log(opts);
  obs::EventLogSession event_session(log);

  auto svc = serve::CommunityService<V32>::create(
      build_community_graph(two_cliques<V32>(6)), fast_options(dir));
  ASSERT_TRUE(svc.has_value());
  // Threshold of 1ns: every verb is "slow", so the event fires reliably.
  serve::Session<V32> sess(**svc, "test", /*slow_query_seconds=*/1e-9);
  sess.handle_line("+ 0 6 5");
  ASSERT_EQ(*sess.handle_line("COMMIT").line, "OK 1");
  sess.handle_line("QUALITY");
  (*svc)->shutdown();

  std::string all;
  for (const auto& l : obs::read_events(opts.path)) {
    EXPECT_TRUE(obs::json_validate(l)) << l;
    all += l;
    all += '\n';
  }
  EXPECT_NE(all.find("\"type\":\"batch_commit\""), std::string::npos);
  EXPECT_NE(all.find("\"type\":\"slow_query\""), std::string::npos);
  EXPECT_NE(all.find("\"verb\":\"QUALITY\""), std::string::npos);
  // Unknown verbs never mint slow-query events (or histogram names).
  sess.handle_line("BOGUS");
  const std::int64_t before = log.events_appended();
  sess.handle_line("NOT_A_VERB x");
  EXPECT_EQ(log.events_appended(), before);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace commdet
