// Streaming-service subsystem: delta-line protocol parsing, WAL
// append/replay (including torn tails, aborts, and gaps), the epoch
// publisher, the CommunityService write path, session verbs, crash
// recovery (bit-for-bit membership), and a concurrent readers-vs-writer
// stress test (the TSan target for the serve layer).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <random>

#include "commdet/graph/builder.hpp"
#include "commdet/graph/delta.hpp"
#include "commdet/io/delta_text.hpp"
#include "commdet/io/snapshot.hpp"
#include "commdet/robust/checkpoint.hpp"
#include "commdet/serve/epoch.hpp"
#include "commdet/serve/follower.hpp"
#include "commdet/serve/protocol.hpp"
#include "commdet/serve/replication.hpp"
#include "commdet/serve/service.hpp"
#include "commdet/serve/session.hpp"
#include "commdet/serve/wal.hpp"

namespace commdet {
namespace {

using V32 = std::int32_t;

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

[[nodiscard]] std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

[[nodiscard]] serve::ServeOptions fast_options(const std::string& dir) {
  serve::ServeOptions o;
  o.dir = dir;
  o.batch_max_deltas = 4;
  // Generous deadline so deltas submitted back-to-back always land in
  // one micro-batch; COMMIT cuts the batch immediately regardless.
  o.batch_max_delay_seconds = 0.25;
  o.save_every_batches = 0;           // tests trigger saves explicitly
  o.fsync_wal = false;                // keep the suite fast; format identical
  return o;
}

// ---------------------------------------------------------------------------
// ServeProtocol: delta-line helpers + reply formatting

TEST(ServeProtocol, DeltaLineRoundTrip) {
  DeltaBatch<V32> batch;
  batch.insert(3, 9, 2.5);
  batch.erase(1, 2);
  batch.deltas.push_back({DeltaOp::kReweight, 4, 5, 7});
  for (const auto& d : batch.deltas) {
    const std::string line = format_delta_line(d);
    ASSERT_TRUE(is_delta_line(line)) << line;
    DeltaBatch<V32> parsed;
    ASSERT_TRUE(parse_delta_line<V32>(line, "test", parsed)) << line;
    ASSERT_EQ(parsed.size(), 1);
    EXPECT_EQ(parsed.deltas[0].op, d.op);
    EXPECT_EQ(parsed.deltas[0].u, d.u);
    EXPECT_EQ(parsed.deltas[0].v, d.v);
    EXPECT_EQ(parsed.deltas[0].w, d.w);
  }
}

TEST(ServeProtocol, ParseDeltaLineSkipsBlanksAndRejectsGarbage) {
  DeltaBatch<V32> out;
  EXPECT_FALSE(parse_delta_line<V32>("", "t", out));
  EXPECT_FALSE(parse_delta_line<V32>("# comment", "t", out));
  EXPECT_EQ(out.size(), 0);
  EXPECT_FALSE(is_delta_line("GET 3"));
  EXPECT_THROW(parse_delta_line<V32>("+ 1", "t", out), CommdetError);
  EXPECT_THROW(parse_delta_line<V32>("- 1 2 3", "t", out), CommdetError);
  EXPECT_THROW(parse_delta_line<V32>("+ -1 2 1", "t", out), CommdetError);
}

TEST(ServeProtocol, F64FormattingIsBitExact) {
  for (const double v : {0.0, -1.5, 0.1, 0.46450128017332154, 1e-300}) {
    const std::string s = serve::protocol_f64(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
}

TEST(ServeProtocol, ErrorLineIsSingleLine) {
  const Error err{ErrorCode::kIoParse, Phase::kInput, "bad\nline\rhere"};
  const std::string line = serve::protocol_error_line(err);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.find('\r'), std::string::npos);
  EXPECT_EQ(line.rfind("ERR ", 0), 0u) << line;
}

// ---------------------------------------------------------------------------
// ServeWal: segment write/read, torn tails, aborts, gaps

using Change = DynamicCommunities<V32>::LabelChange;

[[nodiscard]] serve::WalRecord<V32> make_record(std::int64_t seq) {
  serve::WalRecord<V32> rec;
  rec.seq = seq;
  rec.batch.insert(static_cast<V32>(seq), static_cast<V32>(seq + 1), 2);
  rec.changes = {{seq, seq + 100}};
  rec.num_communities = 2;
  rec.modularity = 0.25 + static_cast<double>(seq) * 0.001;
  rec.coverage = 0.75;
  rec.labels_crc = static_cast<std::uint32_t>(0xabc0 + seq);
  return rec;
}

void append_record(serve::WalWriter<V32>& w, const serve::WalRecord<V32>& rec) {
  w.append_intent(rec.seq, std::span<const EdgeDelta<V32>>(rec.batch.deltas));
  w.append_commit(rec.seq, std::span<const Change>(rec.changes), rec.num_communities,
                  rec.modularity, rec.coverage, rec.labels_crc);
}

TEST(ServeWal, RoundTripAcrossSegments) {
  const std::string dir = fresh_dir("wal_rt");
  {
    serve::WalWriter<V32> w1(dir, 1, /*fsync=*/false);
    append_record(w1, make_record(1));
    append_record(w1, make_record(2));
    serve::WalWriter<V32> w2(dir, 3, false);  // rotated segment
    append_record(w2, make_record(3));
  }
  ASSERT_EQ(serve::list_wal_segments(dir).size(), 2u);
  const auto recs = serve::read_wal_records<V32>(dir, /*after_epoch=*/0);
  ASSERT_EQ(recs.size(), 3u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const auto expect = make_record(static_cast<std::int64_t>(i) + 1);
    EXPECT_EQ(recs[i].seq, expect.seq);
    ASSERT_EQ(recs[i].batch.size(), 1);
    EXPECT_EQ(recs[i].batch.deltas[0].u, expect.batch.deltas[0].u);
    ASSERT_EQ(recs[i].changes.size(), 1u);
    EXPECT_EQ(recs[i].changes[0].vertex, expect.changes[0].vertex);
    EXPECT_EQ(recs[i].changes[0].label, expect.changes[0].label);
    EXPECT_EQ(recs[i].modularity, expect.modularity);  // %.17g: bit-exact
    EXPECT_EQ(recs[i].labels_crc, expect.labels_crc);
  }
  // A snapshot at epoch 2 leaves only record 3 to replay.
  EXPECT_EQ(serve::read_wal_records<V32>(dir, 2).size(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(ServeWal, TornTailIsDroppedCommittedPrefixSurvives) {
  const std::string dir = fresh_dir("wal_torn");
  {
    serve::WalWriter<V32> w(dir, 1, false);
    append_record(w, make_record(1));
    append_record(w, make_record(2));
  }
  const std::string path = serve::wal_segment_path(dir, 1);
  const auto full = std::filesystem::file_size(path);
  // Chop bytes off the end: whatever the cut lands on, replay must
  // yield a prefix of the committed records, never garbage.
  for (std::uintmax_t cut = 1; cut < full; cut += 7) {
    std::filesystem::resize_file(path, full - cut);
    const auto recs = serve::read_wal_records<V32>(dir, 0);
    ASSERT_LE(recs.size(), 2u);
    for (std::size_t i = 0; i < recs.size(); ++i)
      EXPECT_EQ(recs[i].seq, static_cast<std::int64_t>(i) + 1);
  }
  std::filesystem::resize_file(path, 0);
  EXPECT_TRUE(serve::read_wal_records<V32>(dir, 0).empty());
  std::filesystem::remove_all(dir);
}

TEST(ServeWal, AbortedSequenceIsSkippedAndReused) {
  const std::string dir = fresh_dir("wal_abort");
  {
    serve::WalWriter<V32> w(dir, 1, false);
    const auto rec = make_record(1);
    w.append_intent(1, std::span<const EdgeDelta<V32>>(rec.batch.deltas));
    w.append_abort(1);  // batch rolled back; seq 1 is reused next
    append_record(w, make_record(1));
  }
  const auto recs = serve::read_wal_records<V32>(dir, 0);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].seq, 1);
  std::filesystem::remove_all(dir);
}

TEST(ServeWal, GapStopsReplay) {
  const std::string dir = fresh_dir("wal_gap");
  {
    serve::WalWriter<V32> w1(dir, 1, false);
    append_record(w1, make_record(1));
    serve::WalWriter<V32> w3(dir, 3, false);  // seq 2 missing
    append_record(w3, make_record(3));
  }
  const auto recs = serve::read_wal_records<V32>(dir, 0);
  ASSERT_EQ(recs.size(), 1u);  // record 3 unusable: epoch 2 was lost
  EXPECT_EQ(recs[0].seq, 1);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// ServeEpoch: snapshot exchange

TEST(ServeEpoch, PublishAndCurrent) {
  serve::EpochPublisher<V32> pub;
  EXPECT_EQ(pub.current(), nullptr);
  auto snap = std::make_shared<serve::MembershipSnapshot<V32>>();
  snap->epoch = 7;
  snap->labels = std::make_shared<const std::vector<V32>>(std::vector<V32>{0, 1});
  pub.publish(snap);
  const auto got = pub.current();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->epoch, 7);
  EXPECT_EQ(got->labels->size(), 2u);
  // Old snapshots stay valid after a newer publish (readers may still
  // hold them).
  auto newer = std::make_shared<serve::MembershipSnapshot<V32>>(*snap);
  newer->epoch = 8;
  pub.publish(newer);
  EXPECT_EQ(got->epoch, 7);
  EXPECT_EQ(pub.current()->epoch, 8);
}

// ---------------------------------------------------------------------------
// ServeService: write path, session verbs, recovery

TEST(ServeService, CommitBarrierAppliesSubmittedDeltas) {
  const std::string dir = fresh_dir("svc_commit");
  auto svc = serve::CommunityService<V32>::create(
      build_community_graph(two_cliques<V32>(6)), fast_options(dir));
  ASSERT_TRUE(svc.has_value()) << svc.error().message();
  auto& s = **svc;
  EXPECT_EQ(s.snapshot()->epoch, 0);
  ASSERT_TRUE(s.submit({DeltaOp::kInsert, 0, 6, 5}).has_value());
  ASSERT_TRUE(s.submit({DeltaOp::kInsert, 1, 7, 5}).has_value());
  const auto epoch = s.commit();
  ASSERT_TRUE(epoch.has_value()) << epoch.error().message();
  EXPECT_GE(epoch.value(), 1);
  const auto snap = s.snapshot();
  EXPECT_EQ(snap->epoch, epoch.value());
  EXPECT_EQ(snap->labels->size(), 12u);
  EXPECT_EQ(snap->num_communities, snap->communities->size());
  s.shutdown();
  std::filesystem::remove_all(dir);
}

TEST(ServeService, SessionVerbsAnswerFromSnapshot) {
  const std::string dir = fresh_dir("svc_session");
  auto svc = serve::CommunityService<V32>::create(
      build_community_graph(two_cliques<V32>(6)), fast_options(dir));
  ASSERT_TRUE(svc.has_value());
  serve::Session<V32> sess(**svc, "test");

  EXPECT_FALSE(sess.handle_line("").line.has_value());
  EXPECT_FALSE(sess.handle_line("# comment").line.has_value());
  EXPECT_FALSE(sess.handle_line("+ 0 6 5").line.has_value());  // silent delta

  auto r = sess.handle_line("COMMIT");
  ASSERT_TRUE(r.line.has_value());
  EXPECT_EQ(*r.line, "OK 1");

  r = sess.handle_line("EPOCH");
  EXPECT_EQ(*r.line, "OK 1");
  r = sess.handle_line("PING");
  EXPECT_EQ(*r.line, "OK pong 1");
  r = sess.handle_line("GET 0");
  EXPECT_EQ(r.line->rfind("OK 0 ", 0), 0u) << *r.line;
  r = sess.handle_line("GET 99");
  EXPECT_EQ(r.line->rfind("ERR bad-endpoint", 0), 0u) << *r.line;
  r = sess.handle_line("COMMUNITY 0");
  EXPECT_EQ(r.line->rfind("OK 0 ", 0), 0u) << *r.line;
  r = sess.handle_line("QUALITY");
  EXPECT_EQ(r.line->rfind("OK 1 ", 0), 0u) << *r.line;
  r = sess.handle_line("STATS");
  EXPECT_NE(r.line->find("\"schema\":\"commdet-serve-stats\""), std::string::npos);
  r = sess.handle_line("BOGUS 1 2");
  EXPECT_EQ(r.line->rfind("ERR io-parse", 0), 0u) << *r.line;
  EXPECT_FALSE(r.close);
  r = sess.handle_line("+ nonsense");
  EXPECT_EQ(r.line->rfind("ERR io-parse", 0), 0u) << *r.line;
  r = sess.handle_line("QUIT");
  EXPECT_EQ(*r.line, "OK bye");
  EXPECT_TRUE(r.close);
  (*svc)->shutdown();
  std::filesystem::remove_all(dir);
}

TEST(ServeService, CrashRecoveryReplaysWalBitForBit) {
  const std::string dir = fresh_dir("svc_crash");
  auto opts = fast_options(dir);
  std::shared_ptr<const serve::MembershipSnapshot<V32>> before;
  {
    auto svc = serve::CommunityService<V32>::create(
        build_community_graph(two_cliques<V32>(6)), opts);
    ASSERT_TRUE(svc.has_value());
    serve::Session<V32> sess(**svc, "test");
    sess.handle_line("+ 0 6 5");
    ASSERT_EQ(*sess.handle_line("COMMIT").line, "OK 1");
    sess.handle_line("+ 1 7 4");
    sess.handle_line("- 0 1");
    ASSERT_EQ(*sess.handle_line("COMMIT").line, "OK 2");
    before = (*svc)->snapshot();
    (*svc)->crash_for_test();  // no drain, no save: WAL is all we have
  }
  auto re = serve::CommunityService<V32>::open(opts);
  ASSERT_TRUE(re.has_value()) << re.error().message();
  EXPECT_EQ((*re)->replayed_batches(), 2);
  const auto after = (*re)->snapshot();
  EXPECT_EQ(after->epoch, before->epoch);
  EXPECT_EQ(*after->labels, *before->labels);  // bit-for-bit membership
  EXPECT_EQ(after->num_communities, before->num_communities);
  EXPECT_EQ(after->modularity, before->modularity);
  EXPECT_EQ(after->coverage, before->coverage);

  // The recovered service keeps serving and committing.
  serve::Session<V32> sess(**re, "test");
  sess.handle_line("+ 2 8 3");
  EXPECT_EQ(*sess.handle_line("COMMIT").line, "OK 3");
  (*re)->shutdown();
  std::filesystem::remove_all(dir);
}

TEST(ServeService, RestartAfterCleanShutdownNeedsNoReplay) {
  const std::string dir = fresh_dir("svc_clean");
  auto opts = fast_options(dir);
  std::shared_ptr<const serve::MembershipSnapshot<V32>> before;
  {
    auto svc = serve::CommunityService<V32>::create(
        build_community_graph(two_cliques<V32>(6)), opts);
    ASSERT_TRUE(svc.has_value());
    serve::Session<V32> sess(**svc, "test");
    sess.handle_line("+ 0 6 5");
    ASSERT_EQ(*sess.handle_line("COMMIT").line, "OK 1");
    before = (*svc)->snapshot();
    (*svc)->shutdown();  // graceful: drains and saves a final snapshot
  }
  auto re = serve::CommunityService<V32>::open(opts);
  ASSERT_TRUE(re.has_value()) << re.error().message();
  EXPECT_EQ((*re)->replayed_batches(), 0);  // snapshot already at epoch 1
  EXPECT_EQ((*re)->snapshot()->epoch, before->epoch);
  EXPECT_EQ(*(*re)->snapshot()->labels, *before->labels);
  (*re)->shutdown();
  std::filesystem::remove_all(dir);
}

TEST(ServeService, SaveRotatesWalSoOldSegmentsPrune) {
  const std::string dir = fresh_dir("svc_rotate");
  auto opts = fast_options(dir);
  opts.keep_generations = 1;
  auto svc = serve::CommunityService<V32>::create(
      build_community_graph(two_cliques<V32>(6)), opts);
  ASSERT_TRUE(svc.has_value());
  serve::Session<V32> sess(**svc, "test");
  for (int b = 0; b < 3; ++b) {
    sess.handle_line("+ " + std::to_string(b) + " " + std::to_string(6 + b) + " 2");
    ASSERT_EQ(*sess.handle_line("COMMIT").line, "OK " + std::to_string(b + 1));
    const auto saved = (*svc)->save();
    ASSERT_TRUE(saved.has_value()) << saved.error().message();
    EXPECT_EQ(saved->epoch, b + 1);
  }
  EXPECT_LE(serve::list_wal_segments(opts.dir + "/wal").size(), 2u);
  const auto before = (*svc)->snapshot();
  (*svc)->crash_for_test();
  auto re = serve::CommunityService<V32>::open(opts);
  ASSERT_TRUE(re.has_value()) << re.error().message();
  EXPECT_EQ((*re)->snapshot()->epoch, before->epoch);
  EXPECT_EQ(*(*re)->snapshot()->labels, *before->labels);
  (*re)->shutdown();
  std::filesystem::remove_all(dir);
}

TEST(ServeService, BadDeltaRollsBackAndSurfacesOnCommit) {
  const std::string dir = fresh_dir("svc_badbatch");
  auto opts = fast_options(dir);
  opts.dynamic.sanitize.policy = SanitizePolicy::kReject;
  auto svc = serve::CommunityService<V32>::create(
      build_community_graph(two_cliques<V32>(6)), opts);
  ASSERT_TRUE(svc.has_value());
  serve::Session<V32> sess(**svc, "test");
  sess.handle_line("+ 0 5000 2");  // out of range for nv=12, reject policy
  const auto r = sess.handle_line("COMMIT");
  ASSERT_TRUE(r.line.has_value());
  EXPECT_EQ(r.line->rfind("ERR ", 0), 0u) << *r.line;
  EXPECT_EQ((*svc)->snapshot()->epoch, 0);  // nothing committed
  // The failure is consumed: the next clean batch commits as epoch 1.
  sess.handle_line("+ 0 6 2");
  EXPECT_EQ(*sess.handle_line("COMMIT").line, "OK 1");
  (*svc)->shutdown();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// ServeStress: concurrent snapshot readers vs the committing writer.
// Run under TSan via scripts/check_sanitizers.sh.  Readers assert they
// only ever observe fully committed epochs: monotone epoch numbers and
// internally consistent snapshots.

TEST(ServeStress, ConcurrentQueriesSeeOnlyCommittedEpochs) {
  const std::string dir = fresh_dir("svc_stress");
  auto opts = fast_options(dir);
  opts.save_every_batches = 4;  // exercise saves concurrently too
  auto svc = serve::CommunityService<V32>::create(
      build_community_graph(two_cliques<V32>(8)), opts);
  ASSERT_TRUE(svc.has_value());
  auto& s = **svc;
  const std::size_t nv = s.snapshot()->labels->size();

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> committed{0};
  std::atomic<bool> ok{true};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::int64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = s.snapshot();
        // Epochs never go backwards and never run ahead of the commit
        // acknowledgements the producer has received.
        if (snap->epoch < last_epoch) ok.store(false);
        last_epoch = snap->epoch;
        if (snap->epoch > committed.load(std::memory_order_acquire) + 1)
          ok.store(false);
        // A snapshot is immutable and internally consistent.
        if (snap->labels->size() != nv) ok.store(false);
        if (snap->num_communities !=
            static_cast<std::int64_t>(snap->communities->size()))
          ok.store(false);
        std::int64_t size_sum = 0;
        for (const auto& c : *snap->communities) size_sum += c.size;
        if (size_sum != static_cast<std::int64_t>(nv)) ok.store(false);
      }
    });
  }

  serve::Session<V32> sess(s, "stress");
  for (int b = 0; b < 12; ++b) {
    const int u = b % 8;
    sess.handle_line("+ " + std::to_string(u) + " " + std::to_string(8 + u) + " 2");
    sess.handle_line("- " + std::to_string(u) + " " + std::to_string((u + 1) % 8));
    const auto r = sess.handle_line("COMMIT");
    ASSERT_TRUE(r.line.has_value());
    ASSERT_EQ(r.line->rfind("OK ", 0), 0u) << *r.line;
    committed.store(std::stoll(r.line->substr(3)), std::memory_order_release);
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_TRUE(ok.load());
  // One epoch per COMMIT, more if a deadline expired mid-batch under a
  // slow (sanitized) run — but never fewer.
  EXPECT_GE(s.snapshot()->epoch, 12);
  s.shutdown();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// ServeReplication: base64 transfer encoding, the shipped-record
// assembler, and the corruption matrix (random bit flips in shipped
// records and in on-disk segments must be refused, never applied).

[[nodiscard]] std::vector<std::string> split_lines(const std::string& text) {
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
  if (!cur.empty()) out.push_back(cur);
  return out;
}

TEST(ServeReplication, Base64RoundTrip) {
  std::mt19937 rng(7);
  for (std::size_t n = 0; n <= 67; ++n) {
    std::string bytes(n, '\0');
    for (char& c : bytes) c = static_cast<char>(rng() & 0xff);
    const std::string enc = serve::base64_encode(bytes.data(), bytes.size());
    std::string dec;
    ASSERT_TRUE(serve::base64_decode(enc, dec)) << n;
    EXPECT_EQ(dec, bytes) << n;
  }
}

TEST(ServeReplication, Base64RejectsMalformedInput) {
  std::string out;
  EXPECT_FALSE(serve::base64_decode("A", out));       // length % 4 != 0
  EXPECT_FALSE(serve::base64_decode("AB=C", out));    // padding mid-group
  EXPECT_FALSE(serve::base64_decode("A===", out));    // too much padding
  EXPECT_FALSE(serve::base64_decode("AA$A", out));    // outside alphabet
  EXPECT_FALSE(serve::base64_decode("AAA\n", out));   // whitespace is not data
  out.clear();
  EXPECT_TRUE(serve::base64_decode("", out));
  EXPECT_TRUE(out.empty());
}

TEST(ServeReplication, AssemblerRoundTripsSerializedRecords) {
  serve::WalRecordAssembler<V32> asm_;
  for (std::int64_t seq = 1; seq <= 3; ++seq) {
    const serve::WalRecord<V32> rec = make_record(seq);
    const std::vector<std::string> lines = split_lines(serve::serialize_wal_record(rec));
    std::optional<serve::WalRecord<V32>> done;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      EXPECT_TRUE(asm_.mid_record() == (i != 0));
      done = asm_.feed(lines[i]);
      EXPECT_EQ(done.has_value(), i + 1 == lines.size());
    }
    ASSERT_TRUE(done.has_value());
    // Re-serialization is the strongest equality: every field (doubles
    // included, via %.17g) round-trips bit-for-bit.
    EXPECT_EQ(serve::serialize_wal_record(*done), serve::serialize_wal_record(rec));
  }
}

TEST(ServeReplication, CorruptionMatrixShippedRecordsNeverDiverge) {
  // Property: flip any single bit anywhere in a shipped record stream;
  // the assembler either refuses (typed throw), stalls without
  // completing a record, or — when the flip lands in framing slack such
  // as a trailing newline — completes a record that is bit-for-bit the
  // original.  It must never hand back a *different* record.
  std::string stream;
  std::vector<std::string> originals;
  for (std::int64_t seq = 1; seq <= 2; ++seq) {
    const std::string rec = serve::serialize_wal_record(make_record(seq));
    originals.push_back(rec);
    stream += rec;
  }
  std::mt19937 rng(42);
  for (int trial = 0; trial < 256; ++trial) {
    std::string flipped = stream;
    const std::size_t byte = rng() % flipped.size();
    flipped[byte] = static_cast<char>(flipped[byte] ^ (1u << (rng() % 8)));
    serve::WalRecordAssembler<V32> asm_;
    std::vector<serve::WalRecord<V32>> done;
    try {
      for (const std::string& line : split_lines(flipped)) {
        auto rec = asm_.feed(line);
        if (rec.has_value()) done.push_back(std::move(*rec));
      }
    } catch (const CommdetError& e) {
      EXPECT_EQ(e.error().code, ErrorCode::kReplicationBroken)
          << "byte " << byte << ": " << e.what();
    }
    ASSERT_LE(done.size(), originals.size()) << "byte " << byte;
    for (std::size_t i = 0; i < done.size(); ++i)
      EXPECT_EQ(serve::serialize_wal_record(done[i]), originals[i])
          << "flip at byte " << byte << " produced a divergent record";
  }
}

TEST(ServeReplication, CorruptionMatrixOnDiskSegmentsStayPrefixes) {
  // Same property on disk: a flipped segment may lose the damaged
  // record and everything after it (torn-tail semantics), but every
  // record that read_wal_records still returns is bit-for-bit an
  // original, in order, from the start.
  const std::string dir = fresh_dir("wal_corrupt_matrix");
  std::vector<std::string> originals;
  {
    serve::WalWriter<V32> w(dir, 1, /*fsync=*/false);
    for (std::int64_t seq = 1; seq <= 3; ++seq) {
      append_record(w, make_record(seq));
      originals.push_back(serve::serialize_wal_record(make_record(seq)));
    }
  }
  const auto segs = serve::list_wal_segments(dir);
  ASSERT_EQ(segs.size(), 1u);
  std::string bytes;
  {
    std::ifstream in(segs[0].second, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = std::move(ss).str();
  }
  ASSERT_FALSE(bytes.empty());

  std::mt19937 rng(1234);
  for (int trial = 0; trial < 192; ++trial) {
    std::string flipped = bytes;
    const std::size_t byte = rng() % flipped.size();
    flipped[byte] = static_cast<char>(flipped[byte] ^ (1u << (rng() % 8)));
    const std::string cdir = fresh_dir("wal_corrupt_case");
    std::filesystem::create_directories(cdir);
    {
      std::ofstream out(cdir + "/wal-00000001.wal", std::ios::binary);
      out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
    }
    const auto recs = serve::read_wal_records<V32>(cdir, 0);
    ASSERT_LE(recs.size(), originals.size()) << "byte " << byte;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      EXPECT_EQ(recs[i].seq, static_cast<std::int64_t>(i) + 1) << "byte " << byte;
      EXPECT_EQ(serve::serialize_wal_record(recs[i]), originals[i])
          << "flip at byte " << byte << " yielded a divergent record";
    }
    std::filesystem::remove_all(cdir);
  }
  std::filesystem::remove_all(dir);
}

TEST(ServeReplication, CommitSealCoversQualityScalars) {
  // The commit header carries k / modularity / coverage / labels_crc;
  // tampering with any of them must fail the seal, not replay silently
  // wrong values.
  const std::string good = serve::serialize_wal_record(make_record(1));
  const std::string bad = [&] {
    std::string s = good;
    const std::size_t pos = s.find("0.251");  // modularity digits
    EXPECT_NE(pos, std::string::npos) << good;
    s[pos + 2] = '9';
    return s;
  }();
  serve::WalRecordAssembler<V32> asm_;
  bool refused = false;
  try {
    for (const std::string& line : split_lines(bad))
      ASSERT_FALSE(asm_.feed(line).has_value());
  } catch (const CommdetError& e) {
    refused = true;
    EXPECT_EQ(e.error().code, ErrorCode::kReplicationBroken);
  }
  EXPECT_TRUE(refused);
}

// ---------------------------------------------------------------------------
// ServeSession: LineFramer hardening (bounded lines, partial handling)

TEST(ServeSession, FramerSplitsLinesAndStripsCr) {
  serve::LineFramer f;
  ASSERT_TRUE(f.feed("GET 1\r\nPI", 9));
  ASSERT_TRUE(f.feed("NG\npartial", 10));
  EXPECT_EQ(*f.next_line(), "GET 1");
  EXPECT_EQ(*f.next_line(), "PING");
  EXPECT_FALSE(f.next_line().has_value());
  EXPECT_TRUE(f.has_partial());
  EXPECT_EQ(f.take_partial(), "partial");
  EXPECT_FALSE(f.has_partial());
}

TEST(ServeSession, FramerRefusesUnboundedLine) {
  serve::LineFramer f(16);
  const std::string chunk(10, 'x');
  ASSERT_TRUE(f.feed(chunk.data(), chunk.size()));
  EXPECT_FALSE(f.feed(chunk.data(), chunk.size()));  // 20 bytes, no '\n'
  EXPECT_TRUE(f.overflowed());
  EXPECT_FALSE(f.feed("y\n", 2));  // discards until reset
  f.reset();
  ASSERT_TRUE(f.feed("PING\n", 5));
  EXPECT_EQ(*f.next_line(), "PING");
}

TEST(ServeSession, FramerRefusesTerminatedButOversizedLine) {
  serve::LineFramer f(16);
  const std::string line(20, 'x');
  const std::string input = line + "\nPING\n";
  ASSERT_TRUE(f.feed(input.data(), input.size()));  // '\n' arrived in the same chunk
  EXPECT_FALSE(f.next_line().has_value());
  EXPECT_TRUE(f.overflowed());
}

// ---------------------------------------------------------------------------
// ServeFollower: snapshot bootstrap, record apply, staleness budget,
// read-only sessions, restart, and promotion — all driven in-process
// through handle_repl_line, exactly like the daemon does.

struct WriterArtifacts {
  std::vector<std::string> record_texts;  // serialized WAL records 1..N
  std::shared_ptr<const serve::MembershipSnapshot<V32>> final_snap;
  std::string snapshot_bytes;   // newest checkpoint generation file
  std::int64_t snapshot_epoch = 0;
  std::uint64_t fingerprint = 0;
};

/// Runs a writer to epoch 4 with a checkpoint captured at epoch 2, so a
/// follower must bootstrap from the snapshot and then catch up from
/// shipped records 3..4.
[[nodiscard]] WriterArtifacts make_writer_artifacts(const std::string& dir) {
  WriterArtifacts art;
  auto opts = fast_options(dir);
  auto svc = serve::CommunityService<V32>::create(
      build_community_graph(two_cliques<V32>(6)), opts);
  EXPECT_TRUE(svc.has_value());
  serve::Session<V32> sess(**svc, "writer");
  for (int b = 0; b < 4; ++b) {
    sess.handle_line("+ " + std::to_string(b) + " " + std::to_string(6 + b) + " 3");
    EXPECT_EQ(*sess.handle_line("COMMIT").line, "OK " + std::to_string(b + 1));
    if (b == 1) {
      // Capture the generation written at epoch 2 *before* later saves
      // rotate it away.
      const auto saved = (*svc)->save();
      EXPECT_TRUE(saved.has_value());
      art.snapshot_epoch = saved->epoch;
      const auto gens = list_checkpoints(dir);
      EXPECT_FALSE(gens.empty());
      std::ifstream in(gens.front().second, std::ios::binary);
      std::ostringstream ss;
      ss << in.rdbuf();
      art.snapshot_bytes = std::move(ss).str();
    }
  }
  art.final_snap = (*svc)->snapshot();
  art.fingerprint = dynamic_config_fingerprint(opts.dynamic);
  (*svc)->crash_for_test();  // keep the full WAL: no drain, no rotation
  for (const auto& rec : serve::read_wal_records<V32>(dir + "/wal", 0))
    art.record_texts.push_back(serve::serialize_wal_record(rec));
  EXPECT_EQ(art.record_texts.size(), 4u);
  return art;
}

/// Drives one full shipped record through the follower; returns the
/// reply to the record's final line.
[[nodiscard]] std::optional<std::string> ship_record(serve::FollowerService<V32>& f,
                                                     const std::string& text) {
  std::optional<std::string> last;
  for (const std::string& line : split_lines(text)) last = f.handle_repl_line(line);
  return last;
}

/// The snapshot transfer exactly as ReplicationManager::send_snapshot
/// frames it: BEGIN with size + CRC, 3 KiB base64 chunks, END.
[[nodiscard]] std::optional<std::string> ship_snapshot(serve::FollowerService<V32>& f,
                                                       const std::string& bytes) {
  const std::uint32_t crc = crc32_update(0, bytes.data(), bytes.size());
  auto r = f.handle_repl_line("SNAP BEGIN " + std::to_string(bytes.size()) + ' ' +
                              std::to_string(crc));
  EXPECT_FALSE(r.has_value());
  constexpr std::size_t kChunk = 3 * 1024;
  for (std::size_t off = 0; off < bytes.size(); off += kChunk) {
    const std::size_t n = std::min(kChunk, bytes.size() - off);
    r = f.handle_repl_line("SNAP D " + serve::base64_encode(bytes.data() + off, n));
    EXPECT_FALSE(r.has_value());
  }
  return f.handle_repl_line("SNAP END");
}

[[nodiscard]] serve::FollowerOptions follower_options(const std::string& dir) {
  serve::FollowerOptions o;
  o.dir = dir;
  o.fsync_wal = false;
  return o;
}

TEST(ServeFollower, SnapshotBootstrapThenRecordsMatchWriterBitForBit) {
  const std::string wdir = fresh_dir("fol_writer");
  const std::string fdir = fresh_dir("fol_replica");
  const WriterArtifacts art = make_writer_artifacts(wdir);

  auto fol = serve::FollowerService<V32>::open(follower_options(fdir));
  ASSERT_TRUE(fol.has_value()) << fol.error().message();
  EXPECT_EQ((*fol)->epoch(), -1);  // cold: nothing to serve yet
  EXPECT_FALSE((*fol)->snapshot_for_query().has_value());

  auto hello = (*fol)->handle_repl_line(
      "REPL HELLO " + std::to_string(art.fingerprint) + " 4");
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(*hello, "REPL OK -1");

  auto snap_ack = ship_snapshot(**fol, art.snapshot_bytes);
  ASSERT_TRUE(snap_ack.has_value());
  EXPECT_EQ(*snap_ack, "ACK SNAP " + std::to_string(art.snapshot_epoch));
  EXPECT_EQ((*fol)->epoch(), art.snapshot_epoch);
  EXPECT_EQ((*fol)->snapshots_received(), 1);

  for (std::size_t i = static_cast<std::size_t>(art.snapshot_epoch);
       i < art.record_texts.size(); ++i) {
    auto ack = ship_record(**fol, art.record_texts[i]);
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(*ack, "ACK " + std::to_string(i + 1));
  }
  EXPECT_EQ((*fol)->epoch(), art.final_snap->epoch);
  EXPECT_EQ((*fol)->replicated_records(), 2);

  auto q = (*fol)->snapshot_for_query();
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ((*q)->epoch, art.final_snap->epoch);
  EXPECT_EQ(*(*q)->labels, *art.final_snap->labels);  // bit-for-bit
  EXPECT_EQ((*q)->num_communities, art.final_snap->num_communities);
  EXPECT_EQ(serve::protocol_f64((*q)->modularity),
            serve::protocol_f64(art.final_snap->modularity));
  EXPECT_EQ(serve::protocol_f64((*q)->coverage),
            serve::protocol_f64(art.final_snap->coverage));

  // Re-shipping an already-applied record acks idempotently (the writer
  // resends after a reconnect) and changes nothing.
  auto dup = ship_record(**fol, art.record_texts.back());
  ASSERT_TRUE(dup.has_value());
  EXPECT_EQ(*dup, "ACK 4");
  EXPECT_EQ((*fol)->epoch(), art.final_snap->epoch);

  std::filesystem::remove_all(wdir);
  std::filesystem::remove_all(fdir);
}

TEST(ServeFollower, RefusesGapsCorruptionAndWrongFingerprint) {
  const std::string wdir = fresh_dir("fol_refuse_writer");
  const std::string fdir = fresh_dir("fol_refuse_replica");
  const WriterArtifacts art = make_writer_artifacts(wdir);

  auto fol = serve::FollowerService<V32>::open(follower_options(fdir));
  ASSERT_TRUE(fol.has_value());

  // Mismatched dynamic configuration is refused at the handshake.
  auto bad_hello = (*fol)->handle_repl_line("REPL HELLO 12345 4");
  ASSERT_TRUE(bad_hello.has_value());
  EXPECT_EQ(bad_hello->rfind("ERR checkpoint-mismatch", 0), 0u) << *bad_hello;

  ASSERT_TRUE((*fol)
                  ->handle_repl_line("REPL HELLO " + std::to_string(art.fingerprint) + " 4")
                  .has_value());
  ASSERT_TRUE(ship_snapshot(**fol, art.snapshot_bytes).has_value());
  ASSERT_EQ((*fol)->epoch(), 2);

  // A sequence gap (record 4 while at epoch 2) must be refused, not
  // applied out of order.
  auto gap = ship_record(**fol, art.record_texts[3]);
  ASSERT_TRUE(gap.has_value());
  EXPECT_EQ(gap->rfind("ERR replication-broken", 0), 0u) << *gap;
  EXPECT_EQ((*fol)->epoch(), 2);

  // A corrupted record 3 is refused by CRC and leaves no trace; the
  // intact resend then applies (the assembler reset cleanly).
  std::string bad = art.record_texts[2];
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x10);
  auto refused = ship_record(**fol, bad);
  if (refused.has_value()) {  // a framing flip may just leave it mid-record
    EXPECT_EQ(refused->rfind("ERR", 0), 0u) << *refused;
  }
  EXPECT_EQ((*fol)->epoch(), 2);
  (*fol)->repl_disconnected();  // writer drops the link after an ERR
  auto ok3 = ship_record(**fol, art.record_texts[2]);
  ASSERT_TRUE(ok3.has_value());
  EXPECT_EQ(*ok3, "ACK 3");
  EXPECT_EQ((*fol)->epoch(), 3);

  std::filesystem::remove_all(wdir);
  std::filesystem::remove_all(fdir);
}

TEST(ServeFollower, StalenessBudgetBoundsReads) {
  const std::string wdir = fresh_dir("fol_stale_writer");
  const std::string fdir = fresh_dir("fol_stale_replica");
  const WriterArtifacts art = make_writer_artifacts(wdir);

  auto opts = follower_options(fdir);
  opts.max_lag_epochs = 0;
  auto fol = serve::FollowerService<V32>::open(opts);
  ASSERT_TRUE(fol.has_value());
  ASSERT_TRUE((*fol)
                  ->handle_repl_line("REPL HELLO " + std::to_string(art.fingerprint) + " 2")
                  .has_value());
  ASSERT_TRUE(ship_snapshot(**fol, art.snapshot_bytes).has_value());

  // Caught up to everything the writer has advertised: reads answer.
  auto hb = (*fol)->handle_repl_line("HB 2");
  ASSERT_TRUE(hb.has_value());
  EXPECT_EQ(*hb, "ACK HB 2");
  EXPECT_EQ((*fol)->lag(), 0);
  EXPECT_TRUE((*fol)->snapshot_for_query().has_value());

  // The writer advertises epoch 4; with a zero budget the follower now
  // refuses with the typed stale-read error instead of answering old data.
  ASSERT_TRUE((*fol)->handle_repl_line("HB 4").has_value());
  EXPECT_EQ((*fol)->lag(), 2);
  auto refused = (*fol)->snapshot_for_query();
  ASSERT_FALSE(refused.has_value());
  EXPECT_EQ(refused.error().code, ErrorCode::kStaleRead);
  serve::Session<V32> sess(**fol, "reader");
  auto r = sess.handle_line("QUALITY");
  EXPECT_EQ(r.line->rfind("ERR stale-read", 0), 0u) << *r.line;

  // Catching up clears the refusal.
  for (std::size_t i = 2; i < art.record_texts.size(); ++i)
    ASSERT_TRUE(ship_record(**fol, art.record_texts[i]).has_value());
  EXPECT_EQ((*fol)->lag(), 0);
  EXPECT_TRUE((*fol)->snapshot_for_query().has_value());

  std::filesystem::remove_all(wdir);
  std::filesystem::remove_all(fdir);
}

TEST(ServeFollower, SessionsAreReadOnlyAndHealthReportsRole) {
  const std::string wdir = fresh_dir("fol_ro_writer");
  const std::string fdir = fresh_dir("fol_ro_replica");
  const WriterArtifacts art = make_writer_artifacts(wdir);

  auto fol = serve::FollowerService<V32>::open(follower_options(fdir));
  ASSERT_TRUE(fol.has_value());
  ASSERT_TRUE((*fol)
                  ->handle_repl_line("REPL HELLO " + std::to_string(art.fingerprint) + " 4")
                  .has_value());
  ASSERT_TRUE(ship_snapshot(**fol, art.snapshot_bytes).has_value());

  serve::Session<V32> sess(**fol, "reader");
  EXPECT_TRUE(sess.is_follower());
  for (const char* verb : {"+ 0 6 2", "- 0 1", "COMMIT", "SAVE"}) {
    auto r = sess.handle_line(verb);
    ASSERT_TRUE(r.line.has_value()) << verb;
    EXPECT_EQ(r.line->rfind("ERR read-only", 0), 0u) << verb << " -> " << *r.line;
  }
  auto g = sess.handle_line("GET 0");
  EXPECT_EQ(g.line->rfind("OK 0 ", 0), 0u) << *g.line;
  auto h = sess.handle_line("HEALTH");
  ASSERT_TRUE(h.line.has_value());
  EXPECT_NE(h.line->find("\"role\":\"follower\""), std::string::npos) << *h.line;
  EXPECT_NE(h.line->find("\"lag\""), std::string::npos) << *h.line;
  auto p = sess.handle_line("PROMOTE");
  EXPECT_TRUE(p.promote);
  EXPECT_FALSE(p.line.has_value());  // the daemon acks after the takeover

  std::filesystem::remove_all(wdir);
  std::filesystem::remove_all(fdir);
}

TEST(ServeFollower, WriterSessionRefusesPromoteAndReportsRole) {
  const std::string dir = fresh_dir("fol_writer_role");
  auto svc = serve::CommunityService<V32>::create(
      build_community_graph(two_cliques<V32>(6)), fast_options(dir));
  ASSERT_TRUE(svc.has_value());
  serve::Session<V32> sess(**svc, "test");
  auto p = sess.handle_line("PROMOTE");
  EXPECT_FALSE(p.promote);
  EXPECT_EQ(p.line->rfind("ERR invalid-argument", 0), 0u) << *p.line;
  auto h = sess.handle_line("HEALTH");
  EXPECT_NE(h.line->find("\"role\":\"writer\""), std::string::npos) << *h.line;
  EXPECT_NE(h.line->find("\"replication\":null"), std::string::npos) << *h.line;
  (*svc)->shutdown();
  std::filesystem::remove_all(dir);
}

TEST(ServeFollower, RestartResumesFromOwnStateAndKeepsApplying) {
  const std::string wdir = fresh_dir("fol_restart_writer");
  const std::string fdir = fresh_dir("fol_restart_replica");
  const WriterArtifacts art = make_writer_artifacts(wdir);

  {
    auto fol = serve::FollowerService<V32>::open(follower_options(fdir));
    ASSERT_TRUE(fol.has_value());
    ASSERT_TRUE((*fol)
                    ->handle_repl_line("REPL HELLO " + std::to_string(art.fingerprint) +
                                       " 4")
                    .has_value());
    ASSERT_TRUE(ship_snapshot(**fol, art.snapshot_bytes).has_value());
    ASSERT_TRUE(ship_record(**fol, art.record_texts[2]).has_value());
    ASSERT_EQ((*fol)->epoch(), 3);
  }  // killed: no explicit save beyond the bootstrap adoption

  auto re = serve::FollowerService<V32>::open(follower_options(fdir));
  ASSERT_TRUE(re.has_value()) << re.error().message();
  EXPECT_EQ((*re)->epoch(), 3);  // snapshot + its own re-logged WAL record
  ASSERT_TRUE((*re)
                  ->handle_repl_line("REPL HELLO " + std::to_string(art.fingerprint) + " 4")
                  .has_value());
  auto ack = ship_record(**re, art.record_texts[3]);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(*ack, "ACK 4");
  auto q = (*re)->snapshot_for_query();
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(*(*q)->labels, *art.final_snap->labels);

  std::filesystem::remove_all(wdir);
  std::filesystem::remove_all(fdir);
}

TEST(ServeFollower, PromotionYieldsBitIdenticalWorkingWriter) {
  const std::string wdir = fresh_dir("fol_promote_writer");
  const std::string fdir = fresh_dir("fol_promote_replica");
  const WriterArtifacts art = make_writer_artifacts(wdir);

  auto fol = serve::FollowerService<V32>::open(follower_options(fdir));
  ASSERT_TRUE(fol.has_value());
  ASSERT_TRUE((*fol)
                  ->handle_repl_line("REPL HELLO " + std::to_string(art.fingerprint) + " 4")
                  .has_value());
  ASSERT_TRUE(ship_snapshot(**fol, art.snapshot_bytes).has_value());
  for (std::size_t i = 2; i < art.record_texts.size(); ++i)
    ASSERT_TRUE(ship_record(**fol, art.record_texts[i]).has_value());

  auto fin = (*fol)->finalize_for_promotion();
  ASSERT_TRUE(fin.has_value()) << fin.error().message();
  EXPECT_EQ(fin.value(), art.final_snap->epoch);

  auto opts = fast_options(fdir);
  auto promoted = serve::CommunityService<V32>::open(opts);
  ASSERT_TRUE(promoted.has_value()) << promoted.error().message();
  const auto snap = (*promoted)->snapshot();
  EXPECT_EQ(snap->epoch, art.final_snap->epoch);
  EXPECT_EQ(*snap->labels, *art.final_snap->labels);  // zero lost epochs
  EXPECT_EQ(serve::protocol_f64(snap->modularity),
            serve::protocol_f64(art.final_snap->modularity));
  EXPECT_EQ(serve::protocol_f64(snap->coverage),
            serve::protocol_f64(art.final_snap->coverage));

  // The promoted writer accepts new writes: the failover is complete.
  serve::Session<V32> sess(**promoted, "client");
  sess.handle_line("+ 2 9 4");
  EXPECT_EQ(*sess.handle_line("COMMIT").line,
            "OK " + std::to_string(art.final_snap->epoch + 1));
  (*promoted)->shutdown();

  std::filesystem::remove_all(wdir);
  std::filesystem::remove_all(fdir);
}

// ---------------------------------------------------------------------------
// ServeStress: end-to-end replication over a real Unix socket, with the
// follower daemon loop simulated in-process and the connection forcibly
// dropped every few records (reconnect + disk catch-up under load).
// Runs under TSan via the sanitizer suite's Serve* selection.

TEST(ServeStress, ReplicationShipsUnderLoadWithReconnects) {
  const std::string wdir = fresh_dir("repl_stress_writer");
  const std::string fdir = fresh_dir("repl_stress_replica");
  const std::string sock = testing::TempDir() + "/commdet_repl_stress.sock";
  ::unlink(sock.c_str());

  auto fol = serve::FollowerService<V32>::open(follower_options(fdir));
  ASSERT_TRUE(fol.has_value());
  serve::FollowerService<V32>& follower = **fol;

  // Minimal follower daemon: accept, feed lines to handle_repl_line,
  // write replies — and hang up after every few replies to force the
  // writer through its reconnect + catch-up path.
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
      int replies = 0;
      bool drop = false;
      while (!drop && !stop.load(std::memory_order_acquire)) {
        const ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n <= 0) break;
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t nl;
        while (!drop && (nl = buf.find('\n')) != std::string::npos) {
          const std::string line = buf.substr(0, nl);
          buf.erase(0, nl + 1);
          auto reply = follower.handle_repl_line(line);
          if (!reply.has_value()) continue;
          const std::string out = *reply + "\n";
          if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) < 0) drop = true;
          // Drop the link mid-stream every 7th reply (but never while
          // the snapshot transfer is in flight).
          if (++replies % 7 == 0 && reply->rfind("ACK SNAP", 0) != 0) drop = true;
        }
      }
      ::close(fd);
      follower.repl_disconnected();
    }
  });

  auto opts = fast_options(wdir);
  opts.replication.endpoints = {sock};
  opts.replication.heartbeat_interval_seconds = 0.1;
  opts.replication.reconnect_min_seconds = 0.01;
  opts.replication.reconnect_max_seconds = 0.1;
  auto svc = serve::CommunityService<V32>::create(
      build_community_graph(two_cliques<V32>(8)), opts);
  ASSERT_TRUE(svc.has_value());

  // Concurrent readers on the follower while records stream in.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto q = follower.snapshot_for_query();
      if (q.has_value()) {
        ASSERT_EQ((*q)->labels->size(), 16u);
        follower.note_query();
      }
      std::this_thread::yield();
    }
  });

  serve::Session<V32> sess(**svc, "ingest");
  for (int b = 0; b < 24; ++b) {
    const int u = b % 8;
    sess.handle_line("+ " + std::to_string(u) + " " + std::to_string(8 + u) + " 2");
    const auto r = sess.handle_line("COMMIT");
    ASSERT_TRUE(r.line.has_value());
    ASSERT_EQ(r.line->rfind("OK ", 0), 0u) << *r.line;
  }
  const auto wsnap = (*svc)->snapshot();

  // The writer never blocks on the flaky link; the follower still
  // converges to the writer's committed epoch (generous deadline for
  // sanitized builds).
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (follower.epoch() < wsnap->epoch &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(follower.epoch(), wsnap->epoch);

  const auto st = (*svc)->replication()->status();
  ASSERT_EQ(st.size(), 1u);
  EXPECT_GE(st[0].reconnects, 1) << "the flaky link never exercised reconnect";

  stop.store(true, std::memory_order_release);
  (*svc)->shutdown();
  reader.join();
  daemon.join();
  ::close(lfd);
  ::unlink(sock.c_str());

  auto q = follower.snapshot_for_query();
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ((*q)->epoch, wsnap->epoch);
  EXPECT_EQ(*(*q)->labels, *wsnap->labels);  // bit-for-bit convergence
  EXPECT_EQ(serve::protocol_f64((*q)->modularity),
            serve::protocol_f64(wsnap->modularity));

  std::filesystem::remove_all(wdir);
  std::filesystem::remove_all(fdir);
}

}  // namespace
}  // namespace commdet
