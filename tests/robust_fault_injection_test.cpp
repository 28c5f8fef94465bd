// Fault-injection tests: this binary is compiled with
// COMMDET_FAULT_INJECTION=1 (see tests/CMakeLists.txt), turning the
// named fault points in the kernels and readers live.  The headline
// assertion is ISSUE-level graceful degradation: a failure injected
// mid-run — or an exhausted wall-clock budget — returns the best
// clustering completed so far with a machine-readable TerminationReason,
// instead of crashing or calling std::terminate.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "commdet/core/agglomerate.hpp"
#include "commdet/core/detect.hpp"
#include "commdet/dyn/dynamic_communities.hpp"
#include "commdet/gen/planted_partition.hpp"
#include "commdet/graph/delta.hpp"
#include "commdet/io/binary.hpp"
#include "commdet/io/delta_text.hpp"
#include "commdet/io/edge_list_text.hpp"
#include "commdet/io/matrix_market.hpp"
#include "commdet/io/metis.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/robust/fault_injection.hpp"
#include "commdet/robust/sanitize.hpp"
#include "commdet/score/scorers.hpp"
#include "commdet/serve/follower.hpp"
#include "commdet/serve/replication.hpp"
#include "commdet/serve/service.hpp"
#include "commdet/serve/session.hpp"
#include "commdet/serve/wal.hpp"

namespace commdet {
namespace {

using V32 = std::int32_t;

static_assert(fault::kEnabled, "this binary must be built with COMMDET_FAULT_INJECTION");

PlantedPartitionParams small_partition() {
  PlantedPartitionParams p;
  p.num_vertices = 2048;
  p.num_blocks = 16;
  p.internal_degree = 12.0;
  p.external_degree = 2.0;
  p.seed = 42;
  return p;
}

TEST(FaultInjection, ContractFailureAtLevelTwoDegradesToLevelOne) {
  // The tentpole scenario: level 2's contraction throws mid-run.  The
  // driver must contain it and return the level-1 clustering — a real,
  // non-trivial partition — tagged kContainedError with the injected
  // fault's structured record.
  const auto el = generate_planted_partition<V32>(small_partition());
  fault::ScopedFault f(fault::kContract, 2);
  const auto result = agglomerate(el, ModularityScorer{});
  EXPECT_EQ(result.reason, TerminationReason::kContainedError);
  EXPECT_TRUE(is_degraded(result.reason));
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->code, ErrorCode::kInjectedFault);
  EXPECT_EQ(result.error->phase, Phase::kContract);
  ASSERT_EQ(result.levels.size(), 1u);  // exactly the completed level survives
  EXPECT_LT(result.num_communities, 2048);
  EXPECT_GT(result.final_modularity, 0.0);
  for (const auto c : result.community) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, result.num_communities);
  }
}

TEST(FaultInjection, ScoreFailureAtLevelOneKeepsSingletons) {
  // Nothing completed yet: the degraded result is the identity
  // clustering, still valid, still machine-readably tagged.
  const auto el = generate_planted_partition<V32>(small_partition());
  fault::ScopedFault f(fault::kScore, 1);
  const auto result = agglomerate(el, ModularityScorer{});
  EXPECT_EQ(result.reason, TerminationReason::kContainedError);
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->phase, Phase::kScore);
  EXPECT_TRUE(result.levels.empty());
  EXPECT_EQ(result.num_communities, 2048);
}

TEST(FaultInjection, MatchFailureIsContainedToo) {
  const auto el = generate_planted_partition<V32>(small_partition());
  fault::ScopedFault f(fault::kMatch, 1);
  const auto result = agglomerate(el, ModularityScorer{});
  EXPECT_EQ(result.reason, TerminationReason::kContainedError);
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->phase, Phase::kMatch);
  EXPECT_EQ(result.num_communities, 2048);
}

TEST(FaultInjection, FailedLevelPreservesPartialPhaseTimings) {
  // ScopedTimer accumulates on unwinding, so the partial stats of the
  // level the fault interrupted keep the timings of the phases that ran:
  // score completed, and the match phase's time up to the throw.
  const auto el = generate_planted_partition<V32>(small_partition());
  fault::ScopedFault f(fault::kMatch, 2);
  const auto result = agglomerate(el, ModularityScorer{});
  EXPECT_EQ(result.reason, TerminationReason::kContainedError);
  ASSERT_EQ(result.levels.size(), 1u);
  ASSERT_TRUE(result.failed_level.has_value());
  EXPECT_EQ(result.failed_level->level, 2);
  EXPECT_GT(result.failed_level->score_seconds, 0.0);
  EXPECT_GT(result.failed_level->match_seconds, 0.0);
  EXPECT_EQ(result.failed_level->contract_seconds, 0.0);  // never started
}

TEST(FaultInjection, ContainedFaultMarksTraceSpansErrored) {
  // The observability tie-in: a contained failure leaves an errored
  // level span (and its closed phase spans) in the installed trace.
  const auto el = generate_planted_partition<V32>(small_partition());
  obs::Trace trace;
  {
    obs::TraceSession session(trace);
    fault::ScopedFault f(fault::kMatch, 2);
    const auto result = agglomerate(el, ModularityScorer{});
    EXPECT_EQ(result.reason, TerminationReason::kContainedError);
  }
  bool level_errored = false;
  bool match_errored = false;
  for (const auto& s : trace.spans()) {
    EXPECT_GE(s.end_seconds, 0.0) << s.name << " left open";
    level_errored = level_errored || (s.name == "level" && s.error);
    match_errored = match_errored || (s.name == "match" && s.error);
  }
  EXPECT_TRUE(level_errored);
  EXPECT_TRUE(match_errored);
}

TEST(FaultInjection, ExhaustedDeadlineStillYieldsBestSoFar) {
  // The second half of the acceptance criterion: a wall-clock budget
  // that is exhausted immediately after the grace level returns the
  // level-1 clustering with reason kDeadline, not an exception.
  const auto el = generate_planted_partition<V32>(small_partition());
  AgglomerationOptions opts;
  opts.budget.max_seconds = 1e-9;
  opts.budget.grace_levels = 1;
  const auto result = agglomerate(el, ModularityScorer{}, opts);
  EXPECT_EQ(result.reason, TerminationReason::kDeadline);
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->code, ErrorCode::kDeadlineExceeded);
  ASSERT_EQ(result.levels.size(), 1u);
  EXPECT_GT(result.final_modularity, 0.0);
  EXPECT_LT(result.num_communities, 2048);
}

TEST(FaultInjection, RepeatedRunsAfterContainmentSucceed) {
  // Containment must not poison library state: the very next call with
  // no armed faults runs to a clean local maximum.
  const auto el = generate_planted_partition<V32>(small_partition());
  {
    fault::ScopedFault f(fault::kContract, 1);
    const auto degraded = agglomerate(el, ModularityScorer{});
    EXPECT_EQ(degraded.reason, TerminationReason::kContainedError);
  }
  const auto clean = agglomerate(el, ModularityScorer{});
  EXPECT_FALSE(clean.error.has_value());
  EXPECT_FALSE(is_degraded(clean.reason));
  EXPECT_GT(clean.final_modularity, 0.2);
}

TEST(FaultInjection, SanitizeFaultSurfacesAsExpectedError) {
  EdgeList<V32> el;
  el.num_vertices = 2;
  el.add(0, 1);
  fault::ScopedFault f(fault::kSanitize, 1);
  const auto result = sanitize_edges(el);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::kInjectedFault);
}

TEST(FaultInjection, HitCountingAndOneShotSemantics) {
  EdgeList<V32> el;
  el.num_vertices = 2;
  el.add(0, 1);
  fault::arm(fault::kSanitize, 3);
  EXPECT_TRUE(sanitize_edges(el).has_value());  // hit 1
  EXPECT_TRUE(sanitize_edges(el).has_value());  // hit 2
  EXPECT_EQ(fault::hits(fault::kSanitize), 2);
  EXPECT_FALSE(sanitize_edges(el).has_value());  // hit 3 fires
  EXPECT_TRUE(sanitize_edges(el).has_value());   // one-shot: disarmed now
  fault::disarm_all();
}

class FaultInjectionIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("commdet_fault_io_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::disarm_all();
    std::filesystem::remove_all(dir_);
  }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  static void write_file(const std::string& p, const std::string& content) {
    std::ofstream out(p);
    out << content;
  }

  std::filesystem::path dir_;
};

TEST_F(FaultInjectionIoTest, AllFourReadersHaveLiveFaultPoints) {
  write_file(path("g.txt"), "0 1\n");
  write_file(path("g.graph"), "2 1\n2\n1\n");
  write_file(path("g.mtx"), "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n");
  EdgeList<V32> el;
  el.num_vertices = 2;
  el.add(0, 1);
  write_edge_list_binary(el, path("g.bin"));

  {
    fault::ScopedFault f(fault::kIoEdgeListText);
    EXPECT_THROW((void)read_edge_list_text<V32>(path("g.txt")), CommdetError);
  }
  {
    fault::ScopedFault f(fault::kIoMetis);
    EXPECT_THROW((void)read_metis<V32>(path("g.graph")), CommdetError);
  }
  {
    fault::ScopedFault f(fault::kIoMatrixMarket);
    EXPECT_THROW((void)read_matrix_market<V32>(path("g.mtx")), CommdetError);
  }
  {
    fault::ScopedFault f(fault::kIoBinary);
    EXPECT_THROW((void)read_edge_list_binary<V32>(path("g.bin")), CommdetError);
  }
  // ScopedFault cleanup: everything reads fine again.
  EXPECT_EQ(read_edge_list_text<V32>(path("g.txt")).num_edges(), 1);
  EXPECT_EQ(read_metis<V32>(path("g.graph")).num_edges(), 1);
  EXPECT_EQ(read_matrix_market<V32>(path("g.mtx")).num_edges(), 1);
  EXPECT_EQ(read_edge_list_binary<V32>(path("g.bin")).num_edges(), 1);
}

TEST_F(FaultInjectionIoTest, InjectedReaderFaultCarriesStructuredRecord) {
  write_file(path("g.txt"), "0 1\n");
  fault::ScopedFault f(fault::kIoEdgeListText);
  try {
    (void)read_edge_list_text<V32>(path("g.txt"));
    FAIL() << "fault did not fire";
  } catch (const CommdetError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInjectedFault);
    EXPECT_EQ(e.phase(), Phase::kInput);
    EXPECT_NE(std::string(e.what()).find("io.edge_list_text"), std::string::npos);
  }
}

// ----------------------------------------------------------- snapshots

TEST_F(FaultInjectionIoTest, CheckpointWriteFailureIsContainedByDriver) {
  // A failing snapshot must never take down a healthy run: the driver
  // counts the failure and finishes normally.
  const auto el = generate_planted_partition<V32>(small_partition());
  AgglomerationOptions opts;
  opts.checkpoint.directory = path("ckpts_contained");
  fault::ScopedFault f(fault::kSnapshotWrite, 1);
  const auto result = agglomerate(el, ModularityScorer{}, opts);
  EXPECT_FALSE(is_degraded(result.reason));
  ASSERT_TRUE(result.checkpoint.has_value());
  EXPECT_GE(result.checkpoint->checkpoint_failures, 1);
  EXPECT_GT(result.final_modularity, 0.0);
}

TEST_F(FaultInjectionIoTest, CrashBeforePublishLeavesPreviousGenerationIntact) {
  // kSnapshotCommit fires after the payload is written but before the
  // rename that publishes it — the torn-write window.  The previously
  // published generation must survive, and no half-written file may
  // become visible.
  const auto g = build_community_graph(generate_planted_partition<V32>(small_partition()));
  std::vector<V32> community(static_cast<std::size_t>(g.nv));
  for (std::size_t i = 0; i < community.size(); ++i) community[i] = static_cast<V32>(i);
  std::vector<LevelStats> levels;
  CheckpointView<V32> view;
  view.original_nv = static_cast<std::int64_t>(g.nv);
  view.graph = &g;
  view.community = &community;
  view.levels = &levels;

  const std::string dir = path("ckpts_torn");
  view.next_level = 1;
  ASSERT_EQ(save_checkpoint(dir, view, 2), 1);

  view.next_level = 2;
  {
    fault::ScopedFault f(fault::kSnapshotCommit, 1);
    EXPECT_THROW((void)save_checkpoint(dir, view, 2), CommdetError);
  }
  const auto generations = list_checkpoints(dir);
  ASSERT_EQ(generations.size(), 1u);  // the aborted generation never published
  EXPECT_EQ(generations[0].first, 1);
  const auto st = load_latest_checkpoint<V32>(dir);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->next_level, 1);

  // And with the fault gone, the next save publishes generation 2.
  EXPECT_EQ(save_checkpoint(dir, view, 2), 2);
}

TEST_F(FaultInjectionIoTest, UnreadableLatestGenerationFallsBack) {
  const auto g = build_community_graph(generate_planted_partition<V32>(small_partition()));
  std::vector<V32> community(static_cast<std::size_t>(g.nv));
  for (std::size_t i = 0; i < community.size(); ++i) community[i] = static_cast<V32>(i);
  std::vector<LevelStats> levels;
  CheckpointView<V32> view;
  view.original_nv = static_cast<std::int64_t>(g.nv);
  view.graph = &g;
  view.community = &community;
  view.levels = &levels;

  const std::string dir = path("ckpts_fallback");
  view.next_level = 1;
  (void)save_checkpoint(dir, view, 2);
  view.next_level = 2;
  (void)save_checkpoint(dir, view, 2);

  // First open (the newest generation) throws; the loader must catch it
  // and hand back the previous one.
  fault::ScopedFault f(fault::kSnapshotRead, 1);
  const auto st = load_latest_checkpoint<V32>(dir);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->source_generation, 1);
  EXPECT_EQ(st->next_level, 1);
}

// ---------------------------------------------------------------------------
// Dynamic batches: a failure anywhere inside apply_batch must roll the
// whole batch back — the previous graph and clustering stay bit-for-bit
// intact (no torn membership) and the next batch goes through cleanly.

void expect_batch_rolls_back(const char* site) {
  const auto el = generate_planted_partition<V32>(small_partition());
  DynamicCommunities<V32> dyn(build_community_graph(el));
  const auto labels_before = dyn.clustering().community;
  const auto weight_before = dyn.graph().total_weight;
  const auto edges_before = dyn.graph().num_edges();

  DeltaBatch<V32> batch;
  batch.insert(0, 1, 3);
  batch.erase(2, 3);

  {
    fault::ScopedFault f(site);
    const auto row = dyn.apply_batch(batch);
    ASSERT_FALSE(row.has_value()) << "fault at " << site << " must fail the batch";
    EXPECT_EQ(row.error().code, ErrorCode::kInjectedFault);
    EXPECT_EQ(row.error().phase, Phase::kDynamic);
  }
  EXPECT_EQ(dyn.clustering().community, labels_before);
  EXPECT_EQ(dyn.graph().total_weight, weight_before);
  EXPECT_EQ(dyn.graph().num_edges(), edges_before);
  EXPECT_EQ(dyn.stats().rolled_back, 1);
  EXPECT_EQ(dyn.stats().batches, 0);

  // With the fault gone the identical batch commits.
  const auto row = dyn.apply_batch(batch);
  ASSERT_TRUE(row.has_value()) << row.error().message();
  EXPECT_GT(row->effective, 0);
  EXPECT_NE(dyn.graph().total_weight, weight_before);
  EXPECT_EQ(dyn.stats().batches, 1);
}

TEST(FaultInjection, DynamicBatchRollsBackOnApplyFault) {
  expect_batch_rolls_back(fault::kDynApply);
}

TEST(FaultInjection, DynamicBatchRollsBackOnRecomputeFault) {
  expect_batch_rolls_back(fault::kDynRecompute);
}

TEST(FaultInjection, DynamicBatchContainsMidAgglomerationFault) {
  // A fault deep inside the seeded re-agglomeration (the contraction
  // kernel) is contained by the driver into a degraded clustering — the
  // batch still commits transactionally with the best result reached.
  const auto el = generate_planted_partition<V32>(small_partition());
  DynamicCommunities<V32> dyn(build_community_graph(el));
  const auto weight_before = dyn.graph().total_weight;

  DeltaBatch<V32> batch;
  for (V32 i = 0; i < 32; ++i) batch.insert(i, static_cast<V32>(i + 64), 2);

  fault::ScopedFault f(fault::kContract, 1);
  const auto row = dyn.apply_batch(batch);
  ASSERT_TRUE(row.has_value()) << row.error().message();
  // Either the degraded best-so-far committed, or the quality guard
  // noticed it lost to the prior labels and kept those instead.
  EXPECT_TRUE(row->degraded || row->kept_prior);
  EXPECT_NE(dyn.graph().total_weight, weight_before);  // the graph update committed
  EXPECT_EQ(dyn.stats().batches, 1);
  EXPECT_EQ(dyn.stats().rolled_back, 0);
}

TEST(FaultInjection, DeltaTextReadFaultSurfacesAsInputError) {
  const std::string path = testing::TempDir() + "/fi_deltas.txt";
  DeltaBatch<V32> batch;
  batch.insert(1, 2, 1);
  write_delta_text(batch, path);
  fault::ScopedFault f(fault::kIoDeltaText);
  try {
    (void)read_delta_text<V32>(path);
    FAIL() << "expected injected fault";
  } catch (const CommdetError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInjectedFault);
    EXPECT_EQ(e.error().phase, Phase::kInput);
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Replication faults: the three kill-windows the replication design
// must survive — writer dead between durable commit and publish, a
// follower dead mid-replay, and a link dropped mid-record.

[[nodiscard]] EdgeList<V32> two_cliques_graph() {
  EdgeList<V32> g;
  g.num_vertices = 12;
  for (V32 c = 0; c < 2; ++c)
    for (V32 i = 0; i < 6; ++i)
      for (V32 j = static_cast<V32>(i + 1); j < 6; ++j)
        g.add(static_cast<V32>(c * 6 + i), static_cast<V32>(c * 6 + j));
  return g;
}

[[nodiscard]] std::string serve_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

[[nodiscard]] serve::ServeOptions serve_options(const std::string& dir) {
  serve::ServeOptions o;
  o.dir = dir;
  o.batch_max_deltas = 4;
  o.batch_max_delay_seconds = 0.25;
  o.save_every_batches = 0;
  o.fsync_wal = false;
  return o;
}

[[nodiscard]] std::vector<std::string> text_lines(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  return out;
}

[[nodiscard]] std::optional<std::string> ship_lines(serve::FollowerService<V32>& f,
                                                    const std::string& text) {
  std::optional<std::string> last;
  for (const std::string& line : text_lines(text)) last = f.handle_repl_line(line);
  return last;
}

TEST(FaultInjection, WriterDeathBetweenCommitAndPublishLosesNoEpoch) {
  // The commit record is durable before publish: a writer killed in
  // that window must recover *with* the batch — and a catching-up
  // follower then receives it — rather than losing an acked epoch.
  const std::string dir = serve_dir("fi_publish_window");
  auto opts = serve_options(dir);
  {
    auto svc = serve::CommunityService<V32>::create(
        build_community_graph(two_cliques_graph()), opts);
    ASSERT_TRUE(svc.has_value());
    serve::Session<V32> sess(**svc, "test");
    sess.handle_line("+ 0 6 4");
    ASSERT_EQ(*sess.handle_line("COMMIT").line, "OK 1");

    fault::ScopedFault f(fault::kServePublish, 1);
    sess.handle_line("+ 1 7 4");
    auto r = sess.handle_line("COMMIT");
    ASSERT_TRUE(r.line.has_value());
    EXPECT_EQ(r.line->rfind("ERR injected-fault", 0), 0u) << *r.line;
    // Epoch 2 was never published to readers...
    EXPECT_EQ((*svc)->snapshot()->epoch, 1);
    (*svc)->crash_for_test();
  }
  // ...but its commit record was durable, so recovery replays it.
  auto re = serve::CommunityService<V32>::open(opts);
  ASSERT_TRUE(re.has_value()) << re.error().message();
  EXPECT_EQ((*re)->snapshot()->epoch, 2);
  EXPECT_EQ((*re)->replayed_batches(), 2);
  serve::Session<V32> sess(**re, "test");
  sess.handle_line("+ 2 8 4");
  EXPECT_EQ(*sess.handle_line("COMMIT").line, "OK 3");
  (*re)->shutdown();
  std::filesystem::remove_all(dir);
}

TEST(FaultInjection, FollowerDeathMidReplayRestartsAndResumes) {
  const std::string wdir = serve_dir("fi_apply_writer");
  const std::string fdir = serve_dir("fi_apply_replica");

  // Writer: three committed epochs, a checkpoint captured at epoch 1.
  auto opts = serve_options(wdir);
  std::string snapshot_bytes;
  std::shared_ptr<const serve::MembershipSnapshot<V32>> final_snap;
  {
    auto svc = serve::CommunityService<V32>::create(
        build_community_graph(two_cliques_graph()), opts);
    ASSERT_TRUE(svc.has_value());
    serve::Session<V32> sess(**svc, "writer");
    for (int b = 0; b < 3; ++b) {
      sess.handle_line("+ " + std::to_string(b) + " " + std::to_string(6 + b) + " 3");
      ASSERT_EQ(*sess.handle_line("COMMIT").line, "OK " + std::to_string(b + 1));
      if (b == 0) {
        ASSERT_TRUE((*svc)->save().has_value());
        const auto gens = list_checkpoints(wdir);
        ASSERT_FALSE(gens.empty());
        std::ifstream in(gens.front().second, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        snapshot_bytes = std::move(ss).str();
      }
    }
    final_snap = (*svc)->snapshot();
    (*svc)->crash_for_test();
  }
  std::vector<std::string> records;
  for (const auto& rec : serve::read_wal_records<V32>(wdir + "/wal", 0))
    records.push_back(serve::serialize_wal_record(rec));
  ASSERT_EQ(records.size(), 3u);
  const std::uint64_t fp = dynamic_config_fingerprint(opts.dynamic);

  serve::FollowerOptions fopts;
  fopts.dir = fdir;
  fopts.fsync_wal = false;
  {
    auto fol = serve::FollowerService<V32>::open(fopts);
    ASSERT_TRUE(fol.has_value());
    ASSERT_TRUE(
        (*fol)->handle_repl_line("REPL HELLO " + std::to_string(fp) + " 3").has_value());
    const std::uint32_t crc =
        crc32_update(0, snapshot_bytes.data(), snapshot_bytes.size());
    ASSERT_FALSE((*fol)
                     ->handle_repl_line("SNAP BEGIN " +
                                        std::to_string(snapshot_bytes.size()) + ' ' +
                                        std::to_string(crc))
                     .has_value());
    constexpr std::size_t kChunk = 3 * 1024;
    for (std::size_t off = 0; off < snapshot_bytes.size(); off += kChunk) {
      const std::size_t n = std::min(kChunk, snapshot_bytes.size() - off);
      ASSERT_FALSE(
          (*fol)
              ->handle_repl_line("SNAP D " +
                                 serve::base64_encode(snapshot_bytes.data() + off, n))
              .has_value());
    }
    auto snap_ack = (*fol)->handle_repl_line("SNAP END");
    ASSERT_TRUE(snap_ack.has_value());
    EXPECT_EQ(*snap_ack, "ACK SNAP 1");

    // The injected fault fires inside apply — the follower process
    // "dies" mid-replay (the throw escapes exactly so a daemon crash is
    // faithful): record 2 must leave no partial state behind.
    fault::ScopedFault f(fault::kReplApply, 1);
    EXPECT_THROW((void)ship_lines(**fol, records[1]), CommdetError);
    EXPECT_EQ((*fol)->epoch(), 1);
  }  // killed

  // Restart from its own directory: resumes at the last applied epoch,
  // re-ships cleanly, and converges bit-for-bit with the writer.
  auto re = serve::FollowerService<V32>::open(fopts);
  ASSERT_TRUE(re.has_value()) << re.error().message();
  EXPECT_EQ((*re)->epoch(), 1);
  ASSERT_TRUE(
      (*re)->handle_repl_line("REPL HELLO " + std::to_string(fp) + " 3").has_value());
  for (std::size_t i = 1; i < records.size(); ++i) {
    auto ack = ship_lines(**re, records[i]);
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(*ack, "ACK " + std::to_string(i + 1));
  }
  auto q = (*re)->snapshot_for_query();
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ((*q)->epoch, final_snap->epoch);
  EXPECT_EQ(*(*q)->labels, *final_snap->labels);

  std::filesystem::remove_all(wdir);
  std::filesystem::remove_all(fdir);
}

TEST(FaultInjection, DroppedLinkMidRecordReconnectsAndCatchesUp) {
  const std::string wdir = serve_dir("fi_ship_writer");
  const std::string fdir = serve_dir("fi_ship_replica");
  const std::string sock = testing::TempDir() + "/commdet_fi_ship.sock";
  ::unlink(sock.c_str());

  serve::FollowerOptions fopts;
  fopts.dir = fdir;
  fopts.fsync_wal = false;
  auto fol = serve::FollowerService<V32>::open(fopts);
  ASSERT_TRUE(fol.has_value());
  serve::FollowerService<V32>& follower = **fol;

  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(sock.size(), sizeof(addr.sun_path));
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", sock.c_str());
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 4), 0);

  std::atomic<bool> stop{false};
  std::thread daemon([&] {
    while (!stop.load(std::memory_order_acquire)) {
      pollfd p{lfd, POLLIN, 0};
      if (::poll(&p, 1, 50) <= 0) continue;
      const int fd = ::accept(lfd, nullptr, nullptr);
      if (fd < 0) continue;
      std::string buf;
      char chunk[4096];
      for (;;) {
        const ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n <= 0) break;
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t nl;
        while ((nl = buf.find('\n')) != std::string::npos) {
          const std::string line = buf.substr(0, nl);
          buf.erase(0, nl + 1);
          auto reply = follower.handle_repl_line(line);
          if (!reply.has_value()) continue;
          const std::string out = *reply + "\n";
          if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) < 0) break;
        }
      }
      ::close(fd);
      follower.repl_disconnected();
    }
  });

  auto opts = serve_options(wdir);
  opts.replication.endpoints = {sock};
  opts.replication.reconnect_min_seconds = 0.01;
  opts.replication.reconnect_max_seconds = 0.1;
  auto svc = serve::CommunityService<V32>::create(
      build_community_graph(two_cliques_graph()), opts);
  ASSERT_TRUE(svc.has_value());

  // The first record send throws inside the link thread; the manager
  // must treat it as a dropped connection — back off, reconnect, and
  // resume from the follower's acked position — never crash the daemon
  // or block the writer.
  fault::arm(fault::kReplShip, 1);

  serve::Session<V32> sess(**svc, "ingest");
  for (int b = 0; b < 5; ++b) {
    sess.handle_line("+ " + std::to_string(b) + " " + std::to_string(6 + b) + " 2");
    ASSERT_EQ(*sess.handle_line("COMMIT").line, "OK " + std::to_string(b + 1));
  }
  const auto wsnap = (*svc)->snapshot();

  // The follower applies a record before its ACK reaches the writer's
  // link thread, so wait for both sides to reach the final epoch.
  const auto writer_acked = [&] {
    const auto st = (*svc)->replication()->status();
    return !st.empty() && st[0].acked_epoch >= wsnap->epoch;
  };
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while ((follower.epoch() < wsnap->epoch || !writer_acked()) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(follower.epoch(), wsnap->epoch);
  EXPECT_GE(fault::hits(fault::kReplShip), 1);  // the ship fault point fired

  const auto st = (*svc)->replication()->status();
  ASSERT_EQ(st.size(), 1u);
  EXPECT_GE(st[0].reconnects, 1);
  EXPECT_EQ(st[0].acked_epoch, wsnap->epoch);

  stop.store(true, std::memory_order_release);
  (*svc)->shutdown();
  daemon.join();
  ::close(lfd);
  ::unlink(sock.c_str());
  fault::disarm_all();

  auto q = follower.snapshot_for_query();
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(*(*q)->labels, *wsnap->labels);  // bit-for-bit after the drop

  std::filesystem::remove_all(wdir);
  std::filesystem::remove_all(fdir);
}

}  // namespace
}  // namespace commdet
