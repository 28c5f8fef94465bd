// Crash-safe checkpoint/resume tests: snapshot round-trips under both
// vertex-label widths, generation rotation, fallback past torn /
// truncated / bit-flipped files, configuration-fingerprint refusal, and
// the headline property — a resumed run reaches the same clustering as
// an uninterrupted run of the same configuration.
#include <gtest/gtest.h>

#include <omp.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "commdet/core/agglomerate.hpp"
#include "commdet/core/detect.hpp"
#include "commdet/dyn/dynamic_communities.hpp"
#include "commdet/gen/planted_partition.hpp"
#include "commdet/gen/rmat.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/obs/json.hpp"
#include "commdet/obs/report.hpp"
#include "commdet/robust/checkpoint.hpp"
#include "commdet/score/scorers.hpp"

namespace commdet {
namespace {

PlantedPartitionParams test_partition() {
  PlantedPartitionParams p;
  p.num_vertices = 1024;
  p.num_blocks = 16;
  p.internal_degree = 12.0;
  p.external_degree = 2.0;
  p.seed = 7;
  return p;
}

/// Deterministic driver configuration: the sequential-greedy matcher
/// makes the whole trajectory reproducible run-to-run, so resumed and
/// uninterrupted runs can be compared label-for-label.
AgglomerationOptions deterministic_options() {
  AgglomerationOptions o;
  o.matcher = MatcherKind::kSequentialGreedy;
  return o;
}

template <typename V>
void expect_same_clustering(const Clustering<V>& a, const Clustering<V>& b) {
  EXPECT_EQ(a.num_communities, b.num_communities);
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_NEAR(a.final_modularity, b.final_modularity, 1e-9);
  EXPECT_NEAR(a.final_coverage, b.final_coverage, 1e-9);
  ASSERT_EQ(a.community.size(), b.community.size());
  EXPECT_EQ(a.community, b.community);
  EXPECT_EQ(a.levels.size(), b.levels.size());
}

class CheckpointTestBase : public ::testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    dir_ = std::filesystem::temp_directory_path() /
           ("commdet_ckpt_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(dir_);
    clear_interrupt();
  }
  void TearDown() override {
    clear_interrupt();
    std::filesystem::remove_all(dir_);
  }

  [[nodiscard]] std::string dir() const { return dir_.string(); }

  static void flip_byte(const std::string& path, std::int64_t offset) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(offset);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    f.seekp(offset);
    f.write(&byte, 1);
  }

  std::filesystem::path dir_;
};

template <typename V>
class CheckpointTypedTest : public CheckpointTestBase {};

using LabelTypes = ::testing::Types<std::int32_t, std::int64_t>;
TYPED_TEST_SUITE(CheckpointTypedTest, LabelTypes);

// ---------------------------------------------------------- round trip

TYPED_TEST(CheckpointTypedTest, FileRoundTripIsExact) {
  using V = TypeParam;
  const auto g = build_community_graph(generate_planted_partition<V>(test_partition()));
  std::vector<V> community(static_cast<std::size_t>(g.nv));
  for (std::size_t i = 0; i < community.size(); ++i)
    community[i] = static_cast<V>((i * 7) % static_cast<std::size_t>(g.nv));
  std::vector<std::int64_t> vertex_count(static_cast<std::size_t>(g.nv), 1);
  std::vector<LevelStats> levels(2);
  levels[0].level = 1;
  levels[0].nv_before = static_cast<std::int64_t>(g.nv);
  levels[0].modularity = 0.25;
  levels[0].score_seconds = 0.125;
  levels[1].level = 2;
  levels[1].coverage = 0.5;
  std::vector<std::vector<V>> hierarchy = {community};

  CheckpointView<V> view;
  view.config_fingerprint = 0xfeedfacecafeULL;
  view.original_nv = static_cast<std::int64_t>(g.nv);
  view.next_level = 3;
  view.elapsed_seconds = 12.5;
  view.graph = &g;
  view.community = &community;
  view.vertex_count = &vertex_count;
  view.levels = &levels;
  view.hierarchy = &hierarchy;

  const std::string path = checkpoint_path(this->dir(), 1);
  write_checkpoint_file(path, view);
  const auto st = read_checkpoint_file<V>(path);

  EXPECT_EQ(st.config_fingerprint, view.config_fingerprint);
  EXPECT_EQ(st.original_nv, view.original_nv);
  EXPECT_EQ(st.next_level, 3);
  EXPECT_DOUBLE_EQ(st.elapsed_seconds, 12.5);
  EXPECT_EQ(st.graph.nv, g.nv);
  EXPECT_EQ(st.graph.total_weight, g.total_weight);
  EXPECT_EQ(st.graph.bucket_begin, g.bucket_begin);
  EXPECT_EQ(st.graph.bucket_end, g.bucket_end);
  EXPECT_EQ(st.graph.self_weight, g.self_weight);
  EXPECT_EQ(st.graph.volume, g.volume);
  EXPECT_EQ(st.graph.efirst, g.efirst);
  EXPECT_EQ(st.graph.esecond, g.esecond);
  EXPECT_EQ(st.graph.eweight, g.eweight);
  EXPECT_EQ(st.community, community);
  EXPECT_EQ(st.vertex_count, vertex_count);
  ASSERT_EQ(st.levels.size(), 2u);
  EXPECT_EQ(st.levels[0].level, 1);
  EXPECT_EQ(st.levels[0].nv_before, static_cast<std::int64_t>(g.nv));
  EXPECT_DOUBLE_EQ(st.levels[0].modularity, 0.25);
  EXPECT_DOUBLE_EQ(st.levels[0].score_seconds, 0.125);
  EXPECT_DOUBLE_EQ(st.levels[1].coverage, 0.5);
  ASSERT_EQ(st.hierarchy.size(), 1u);
  EXPECT_EQ(st.hierarchy[0], community);
  EXPECT_EQ(st.source_path, path);
}

TEST_F(CheckpointTestBase, CrossWidthRoundTrip) {
  // Labels are widened to 64 bits on disk: a checkpoint written by a
  // 32-bit-label build loads in a 64-bit-label build and vice versa.
  const auto g32 = build_community_graph(
      generate_planted_partition<std::int32_t>(test_partition()));
  std::vector<std::int32_t> community(static_cast<std::size_t>(g32.nv));
  for (std::size_t i = 0; i < community.size(); ++i)
    community[i] = static_cast<std::int32_t>(i / 2);
  std::vector<LevelStats> levels;

  CheckpointView<std::int32_t> view;
  view.original_nv = static_cast<std::int64_t>(g32.nv);
  view.graph = &g32;
  view.community = &community;
  view.levels = &levels;
  const std::string p32 = checkpoint_path(dir(), 1);
  write_checkpoint_file(p32, view);

  const auto st64 = read_checkpoint_file<std::int64_t>(p32);
  EXPECT_EQ(static_cast<std::int64_t>(st64.graph.nv), static_cast<std::int64_t>(g32.nv));
  ASSERT_EQ(st64.community.size(), community.size());
  for (std::size_t i = 0; i < community.size(); ++i)
    EXPECT_EQ(st64.community[i], static_cast<std::int64_t>(community[i]));
  ASSERT_EQ(st64.graph.efirst.size(), g32.efirst.size());
  for (std::size_t i = 0; i < g32.efirst.size(); ++i)
    EXPECT_EQ(st64.graph.efirst[i], static_cast<std::int64_t>(g32.efirst[i]));

  // And back down: the 64-bit state re-serializes and narrows cleanly
  // because every label fits 32 bits.
  CheckpointView<std::int64_t> view64;
  view64.original_nv = st64.original_nv;
  view64.graph = &st64.graph;
  view64.community = &st64.community;
  view64.levels = &st64.levels;
  const std::string p64 = checkpoint_path(dir(), 2);
  write_checkpoint_file(p64, view64);
  const auto st32 = read_checkpoint_file<std::int32_t>(p64);
  EXPECT_EQ(st32.graph.nv, g32.nv);
  EXPECT_EQ(st32.community, community);
  EXPECT_EQ(st32.graph.eweight, g32.eweight);
}

// ---------------------------------------------------- generation files

TEST_F(CheckpointTestBase, SaveRotatesGenerationsAfterCommit) {
  using V = std::int32_t;
  const auto g = build_community_graph(generate_planted_partition<V>(test_partition()));
  std::vector<V> community(static_cast<std::size_t>(g.nv), 0);
  for (std::size_t i = 0; i < community.size(); ++i) community[i] = static_cast<V>(i);
  std::vector<LevelStats> levels;
  CheckpointView<V> view;
  view.original_nv = static_cast<std::int64_t>(g.nv);
  view.graph = &g;
  view.community = &community;
  view.levels = &levels;

  for (int i = 1; i <= 3; ++i) {
    view.next_level = i;
    EXPECT_EQ(save_checkpoint(dir(), view, /*keep_generations=*/2), i);
  }
  const auto generations = list_checkpoints(dir());
  ASSERT_EQ(generations.size(), 2u);  // newest two retained
  EXPECT_EQ(generations[0].first, 3);
  EXPECT_EQ(generations[1].first, 2);

  const auto latest = load_latest_checkpoint<V>(dir());
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->next_level, 3);
  EXPECT_EQ(latest->source_generation, 3);
}

TEST_F(CheckpointTestBase, CorruptLatestFallsBackToPreviousGeneration) {
  using V = std::int32_t;
  const auto g = build_community_graph(generate_planted_partition<V>(test_partition()));
  std::vector<V> community(static_cast<std::size_t>(g.nv));
  for (std::size_t i = 0; i < community.size(); ++i) community[i] = static_cast<V>(i);
  std::vector<LevelStats> levels;
  CheckpointView<V> view;
  view.original_nv = static_cast<std::int64_t>(g.nv);
  view.graph = &g;
  view.community = &community;
  view.levels = &levels;
  view.next_level = 1;
  (void)save_checkpoint(dir(), view, 2);
  view.next_level = 2;
  (void)save_checkpoint(dir(), view, 2);

  // Bit-flip mid-payload of the newest generation: CRC must reject it
  // and the loader must hand back generation 1.
  flip_byte(checkpoint_path(dir(), 2), 4096);
  auto st = load_latest_checkpoint<V>(dir());
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->source_generation, 1);
  EXPECT_EQ(st->next_level, 1);

  // Truncation (a torn write that somehow got published) also falls back.
  view.next_level = 3;
  (void)save_checkpoint(dir(), view, 3);
  const auto path3 = checkpoint_path(dir(), 3);
  std::filesystem::resize_file(path3, std::filesystem::file_size(path3) / 2);
  st = load_latest_checkpoint<V>(dir());
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->source_generation, 1);

  // With every generation corrupted there is nothing to load.
  flip_byte(checkpoint_path(dir(), 1), 4096);
  EXPECT_FALSE(load_latest_checkpoint<V>(dir()).has_value());
}

TEST_F(CheckpointTestBase, LoadFromMissingDirectoryIsEmpty) {
  EXPECT_FALSE(load_latest_checkpoint<std::int32_t>(dir() + "/nope").has_value());
}

// ----------------------------------------------------- fingerprinting

TEST_F(CheckpointTestBase, FingerprintCoversTrajectoryOptionsOnly) {
  AgglomerationOptions base;
  const auto f0 = options_fingerprint(base);

  AgglomerationOptions changed = base;
  changed.matcher = MatcherKind::kEdgeSweep;
  EXPECT_NE(options_fingerprint(changed), f0);
  changed = base;
  changed.min_coverage = 0.5;
  EXPECT_NE(options_fingerprint(changed), f0);
  changed = base;
  changed.max_community_size = 64;
  EXPECT_NE(options_fingerprint(changed), f0);
  changed = base;
  changed.checkpoint.config_salt = 99;
  EXPECT_NE(options_fingerprint(changed), f0);

  // Budget and cadence may legitimately differ between the original run
  // and its resume (raise the deadline, move the directory).
  changed = base;
  changed.budget.max_seconds = 3600.0;
  changed.checkpoint.directory = "/somewhere/else";
  changed.checkpoint.every_levels = 5;
  changed.checkpoint.keep_generations = 7;
  changed.checkpoint.on_exhaustion = false;
  EXPECT_EQ(options_fingerprint(changed), f0);
}

// Checkpoints and persisted dynamic states outlive the binary that
// wrote them, so the fingerprint of a given configuration must not
// change between versions.  The literals were computed by the release
// that still had a contractor option (folded as 0 = bucket sort).
TEST_F(CheckpointTestBase, FingerprintIsStableAcrossVersions) {
  EXPECT_EQ(options_fingerprint(AgglomerationOptions{}), 0xc1842c86f0697059ULL);
  AgglomerationOptions sweep;
  sweep.matcher = MatcherKind::kEdgeSweep;
  EXPECT_EQ(options_fingerprint(sweep), 0x6c7cf6b536355fa3ULL);
  AgglomerationOptions salted;
  salted.min_coverage = 0.5;
  salted.checkpoint.config_salt = 42;
  EXPECT_EQ(options_fingerprint(salted), 0x0f94ae556bf7a92fULL);
  EXPECT_EQ(dynamic_config_fingerprint(DynamicOptions{}), 0x7dc2437e56451c49ULL);
}

TEST_F(CheckpointTestBase, ResumeUnderDifferentConfigurationIsRefused) {
  using V = std::int32_t;
  const auto el = generate_planted_partition<V>(test_partition());
  auto opts = deterministic_options();
  opts.checkpoint.directory = dir();
  opts.max_levels = 1;  // stop early so a cadence checkpoint exists
  (void)agglomerate(el, ModularityScorer{}, opts);
  auto ckpt = load_latest_checkpoint<V>(dir());
  ASSERT_TRUE(ckpt.has_value());

  auto other = opts;
  other.matcher = MatcherKind::kEdgeSweep;
  try {
    (void)resume_agglomerate(std::move(*ckpt), ModularityScorer{}, other);
    FAIL() << "mismatched resume must throw";
  } catch (const CommdetError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCheckpointMismatch);
    EXPECT_EQ(exit_code_for(e.code()), 7);
  }
}

// ------------------------------------------------------------- resume

TEST_F(CheckpointTestBase, ResumedRunMatchesUninterruptedRun) {
  using V = std::int32_t;
  const auto el = generate_planted_partition<V>(test_partition());
  const auto opts = deterministic_options();
  const auto baseline = agglomerate(el, ModularityScorer{}, opts);
  ASSERT_GE(baseline.levels.size(), 3u) << "graph too easy to exercise resume";

  // Same configuration, checkpoint after every level, keep everything.
  auto ckpt_opts = opts;
  ckpt_opts.checkpoint.directory = dir();
  ckpt_opts.checkpoint.keep_generations = 64;
  const auto full = agglomerate(el, ModularityScorer{}, ckpt_opts);
  expect_same_clustering(full, baseline);
  ASSERT_TRUE(full.checkpoint.has_value());
  EXPECT_GE(full.checkpoint->checkpoints_written, 2);
  EXPECT_EQ(full.checkpoint->checkpoint_failures, 0);

  // Simulate dying after level 2: drop every generation newer than 2,
  // resume, and demand the exact uninterrupted result.
  for (const auto& [generation, path] : list_checkpoints(dir()))
    if (generation > 2) std::filesystem::remove(path);
  auto mid = load_latest_checkpoint<V>(dir());
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(mid->next_level, 3);
  ASSERT_EQ(mid->levels.size(), 2u);

  const auto resumed = resume_agglomerate(std::move(*mid), ModularityScorer{}, ckpt_opts);
  expect_same_clustering(resumed, baseline);
  EXPECT_NEAR(resumed.final_modularity, baseline.final_modularity, 1e-9);
  ASSERT_TRUE(resumed.checkpoint.has_value());
  EXPECT_EQ(resumed.checkpoint->resumed_generation, 2);
  EXPECT_EQ(resumed.checkpoint->resumed_level, 3);
  EXPECT_FALSE(resumed.checkpoint->resumed_from.empty());
}

TEST_F(CheckpointTestBase, EveryLevelResumeMatchesUninterruptedRunOnOneThread) {
  // The default (unmatched-list) matcher is deterministic on one thread.
  // Checkpointing every level folds the lazily composed vertex map at
  // every boundary; resuming from any of those generations must give
  // the labels of the run that never stopped.
  using V = std::int32_t;
  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  RmatParams rp;
  rp.scale = 10;
  rp.edge_factor = 8;
  const auto el = generate_rmat<V>(rp);
  const AgglomerationOptions opts;
  const auto baseline = agglomerate(el, ModularityScorer{}, opts);
  ASSERT_GE(baseline.levels.size(), 6u) << "graph too easy to exercise resume";

  auto ckpt_opts = opts;
  ckpt_opts.checkpoint.directory = dir();
  ckpt_opts.checkpoint.every_levels = 1;
  ckpt_opts.checkpoint.keep_generations = 1 << 20;
  const auto full = agglomerate(el, ModularityScorer{}, ckpt_opts);
  expect_same_clustering(full, baseline);

  const auto generations = list_checkpoints(dir());
  ASSERT_GE(generations.size(), 3u);
  for (const std::size_t k : {std::size_t{0}, generations.size() / 2, generations.size() - 1}) {
    SCOPED_TRACE(testing::Message() << "generation " << generations[k].first);
    auto mid = read_checkpoint_file<V>(generations[k].second);
    const auto resumed = resume_agglomerate(std::move(mid), ModularityScorer{}, ckpt_opts);
    expect_same_clustering(resumed, baseline);
  }
  omp_set_num_threads(saved_threads);
}

TEST_F(CheckpointTestBase, ResumedRunMatchesUninterrupted64Bit) {
  using V = std::int64_t;
  const auto el = generate_planted_partition<V>(test_partition());
  const auto opts = deterministic_options();
  const auto baseline = agglomerate(el, ModularityScorer{}, opts);
  ASSERT_GE(baseline.levels.size(), 2u);

  auto ckpt_opts = opts;
  ckpt_opts.checkpoint.directory = dir();
  ckpt_opts.checkpoint.keep_generations = 64;
  (void)agglomerate(el, ModularityScorer{}, ckpt_opts);
  for (const auto& [generation, path] : list_checkpoints(dir()))
    if (generation > 1) std::filesystem::remove(path);
  auto mid = load_latest_checkpoint<V>(dir());
  ASSERT_TRUE(mid.has_value());
  const auto resumed = resume_agglomerate(std::move(*mid), ModularityScorer{}, ckpt_opts);
  expect_same_clustering(resumed, baseline);
}

TEST_F(CheckpointTestBase, InterruptCheckpointsAndResumeCompletes) {
  using V = std::int32_t;
  const auto el = generate_planted_partition<V>(test_partition());
  const auto opts = deterministic_options();
  const auto baseline = agglomerate(el, ModularityScorer{}, opts);

  auto ckpt_opts = opts;
  ckpt_opts.checkpoint.directory = dir();
  request_interrupt();
  const auto stopped = agglomerate(el, ModularityScorer{}, ckpt_opts);
  clear_interrupt();
  EXPECT_EQ(stopped.reason, TerminationReason::kCheckpointed);
  ASSERT_TRUE(stopped.error.has_value());
  EXPECT_EQ(stopped.error->code, ErrorCode::kInterrupted);
  ASSERT_TRUE(stopped.checkpoint.has_value());
  EXPECT_GE(stopped.checkpoint->last_generation, 1);

  auto ckpt = load_latest_checkpoint<V>(dir());
  ASSERT_TRUE(ckpt.has_value());
  const auto resumed = resume_agglomerate(std::move(*ckpt), ModularityScorer{}, ckpt_opts);
  expect_same_clustering(resumed, baseline);
}

TEST_F(CheckpointTestBase, InterruptWithoutCheckpointingDegradesToInterrupted) {
  using V = std::int32_t;
  const auto el = generate_planted_partition<V>(test_partition());
  request_interrupt();
  const auto result = agglomerate(el, ModularityScorer{}, deterministic_options());
  clear_interrupt();
  EXPECT_EQ(result.reason, TerminationReason::kInterrupted);
  EXPECT_TRUE(is_degraded(result.reason));
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->code, ErrorCode::kInterrupted);
  EXPECT_EQ(exit_code_for(result.error->code), 8);
}

TEST_F(CheckpointTestBase, DeadlineExhaustionCheckpointsAndCarriesElapsed) {
  using V = std::int32_t;
  const auto el = generate_planted_partition<V>(test_partition());
  auto opts = deterministic_options();
  opts.checkpoint.directory = dir();
  opts.budget.max_seconds = 1e-9;  // exhausted at the first boundary
  const auto stopped = agglomerate(el, ModularityScorer{}, opts);
  EXPECT_EQ(stopped.reason, TerminationReason::kCheckpointed);
  ASSERT_TRUE(stopped.error.has_value());
  EXPECT_EQ(stopped.error->code, ErrorCode::kDeadlineExceeded);

  // The resumed run inherits the accumulated elapsed time, so the same
  // tiny budget is still exhausted (budgets span resumes)...
  auto ckpt = load_latest_checkpoint<V>(dir());
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_GT(ckpt->elapsed_seconds, 0.0);
  const auto still = resume_agglomerate(std::move(*ckpt), ModularityScorer{}, opts);
  EXPECT_EQ(still.reason, TerminationReason::kCheckpointed);
  ASSERT_TRUE(still.checkpoint.has_value());
  EXPECT_GT(still.checkpoint->resumed_elapsed_seconds, 0.0);

  // ...and raising the deadline (budget is outside the fingerprint)
  // lets the resume run to completion.
  auto raised = opts;
  raised.budget.max_seconds = 0.0;
  auto ckpt2 = load_latest_checkpoint<V>(dir());
  ASSERT_TRUE(ckpt2.has_value());
  const auto finished = resume_agglomerate(std::move(*ckpt2), ModularityScorer{}, raised);
  EXPECT_FALSE(is_degraded(finished.reason));
  const auto baseline = agglomerate(el, ModularityScorer{}, deterministic_options());
  EXPECT_NEAR(finished.final_modularity, baseline.final_modularity, 1e-9);
  EXPECT_EQ(finished.community, baseline.community);
}

// ----------------------------------------------------- facade + report

TEST_F(CheckpointTestBase, FacadeResumeRefusesDifferentScorer) {
  using V = std::int32_t;
  const auto el = generate_planted_partition<V>(test_partition());
  const auto g = build_community_graph(el);
  DetectOptions dopts;
  dopts.agglomeration = deterministic_options();
  dopts.agglomeration.checkpoint.directory = dir();
  dopts.agglomeration.max_levels = 1;
  (void)detect_communities(g, dopts);
  auto ckpt = load_latest_checkpoint<V>(dir());
  ASSERT_TRUE(ckpt.has_value());

  auto other = dopts;
  other.scorer = ScorerKind::kResolutionModularity;
  other.resolution_gamma = 2.0;
  other.agglomeration.min_coverage = 0.9;  // keep the unbounded-scorer guard quiet
  try {
    (void)resume_detect(g, std::move(*ckpt), other);
    FAIL() << "scorer change must be refused";
  } catch (const CommdetError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCheckpointMismatch);
  }
}

TEST_F(CheckpointTestBase, FacadeResumeMatchesUninterruptedDetect) {
  using V = std::int32_t;
  const auto el = generate_planted_partition<V>(test_partition());
  const auto g = build_community_graph(el);
  DetectOptions dopts;
  dopts.agglomeration = deterministic_options();
  const auto baseline = detect_communities(g, dopts);

  auto ckpt_dopts = dopts;
  ckpt_dopts.agglomeration.checkpoint.directory = dir();
  ckpt_dopts.agglomeration.checkpoint.keep_generations = 64;
  (void)detect_communities(g, ckpt_dopts);
  for (const auto& [generation, path] : list_checkpoints(dir()))
    if (generation > 1) std::filesystem::remove(path);
  auto ckpt = load_latest_checkpoint<V>(dir());
  ASSERT_TRUE(ckpt.has_value());
  const auto resumed = resume_detect(g, std::move(*ckpt), ckpt_dopts);
  expect_same_clustering(resumed, baseline);
}

TEST_F(CheckpointTestBase, RunReportCarriesCheckpointProvenance) {
  using V = std::int32_t;
  const auto el = generate_planted_partition<V>(test_partition());
  auto opts = deterministic_options();
  opts.checkpoint.directory = dir();
  opts.checkpoint.keep_generations = 64;
  (void)agglomerate(el, ModularityScorer{}, opts);
  auto ckpt = load_latest_checkpoint<V>(dir());
  ASSERT_TRUE(ckpt.has_value());
  const auto resumed = resume_agglomerate(std::move(*ckpt), ModularityScorer{}, opts);

  const std::string json = obs::run_report_json(resumed);
  EXPECT_TRUE(obs::json_validate(json)) << json;
  EXPECT_NE(json.find("\"checkpoint\":{\"directory\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"resumed\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"resumed_generation\":"), std::string::npos) << json;

  // A run without checkpointing reports the key as null (schema v1
  // additive key, pinned present either way).
  const auto plain = agglomerate(el, ModularityScorer{}, deterministic_options());
  const std::string plain_json = obs::run_report_json(plain);
  EXPECT_NE(plain_json.find("\"checkpoint\":null"), std::string::npos);
}

}  // namespace
}  // namespace commdet
