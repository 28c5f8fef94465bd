// Crash-safe checkpoint/resume for agglomerative runs.
//
// The paper's agglomeration loop runs for hours on billion-edge inputs;
// a crash, OOM kill, or deadline must not throw away completed levels.
// At a level boundary the resumable state is exactly
//
//   * the current community graph (bucket cursors, self weights,
//     volumes, edge triples — bit-identical restore, so a resumed run
//     follows the same trajectory as an uninterrupted one),
//   * the original-vertex -> community map,
//   * the per-level history (and dendrogram when tracked),
//   * accumulated wall-clock usage (budgets span resumes),
//   * a fingerprint of every option that shapes the trajectory, so a
//     resume under a different configuration is refused.
//
// Snapshots use the io/snapshot.hpp container: CRC32-checksummed,
// written crash-atomically (tmp + fsync + rename), one file per
// generation (`checkpoint-NNNNNN.ckpt`).  The newest `keep_generations`
// files are retained, so a torn or bit-flipped latest generation falls
// back to the previous one in load_latest_checkpoint().  Vertex labels
// are widened to 64 bits on disk: 32- and 64-bit label builds read each
// other's checkpoints (narrowing is range-checked).
//
// This header sits on top of core/ types (like obs/report.hpp does) but
// lives in the robust layer with the other degradation machinery.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "commdet/core/clustering.hpp"
#include "commdet/core/options.hpp"
#include "commdet/graph/community_graph.hpp"
#include "commdet/io/snapshot.hpp"
#include "commdet/robust/error.hpp"
#include "commdet/util/rng.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

inline constexpr std::uint32_t kCheckpointFormatVersion = 1;
inline constexpr std::string_view kCheckpointSuffix = ".ckpt";

/// Cooperative interrupt flag, settable from a signal handler
/// (async-signal-safe: one lock-free atomic store).  The driver polls it
/// at the same boundaries as the run budget; on observation it stops,
/// writes a final checkpoint when enabled, and returns the best
/// clustering so far.
namespace detail {
inline std::atomic<bool> g_interrupt_requested{false};
}  // namespace detail

inline void request_interrupt() noexcept {
  detail::g_interrupt_requested.store(true, std::memory_order_relaxed);
}
inline void clear_interrupt() noexcept {
  detail::g_interrupt_requested.store(false, std::memory_order_relaxed);
}
[[nodiscard]] inline bool interrupt_requested() noexcept {
  return detail::g_interrupt_requested.load(std::memory_order_relaxed);
}

/// The resumable state captured at a level boundary.  `source_path` /
/// `source_generation` are not serialized; the loader fills them so the
/// driver can report resume provenance.
template <VertexId V>
struct CheckpointState {
  std::uint64_t config_fingerprint = 0;
  std::int64_t original_nv = 0;
  int next_level = 1;             // first level the resumed run executes
  double elapsed_seconds = 0.0;   // accumulated across all prior runs
  CommunityGraph<V> graph;
  std::vector<V> community;       // original vertex -> current community
  std::vector<std::int64_t> vertex_count;  // per community; empty unless max_community_size
  std::vector<LevelStats> levels;          // completed-level history
  std::vector<std::vector<V>> hierarchy;   // contraction maps when tracked

  std::string source_path;            // filled by the loader
  std::int64_t source_generation = -1;  // filled by the loader
};

/// Borrowed view of the same state, so the driver can snapshot the live
/// graph without copying it.
template <VertexId V>
struct CheckpointView {
  std::uint64_t config_fingerprint = 0;
  std::int64_t original_nv = 0;
  int next_level = 1;
  double elapsed_seconds = 0.0;
  const CommunityGraph<V>* graph = nullptr;
  const std::vector<V>* community = nullptr;
  const std::vector<std::int64_t>* vertex_count = nullptr;  // may be null
  const std::vector<LevelStats>* levels = nullptr;
  const std::vector<std::vector<V>>* hierarchy = nullptr;  // may be null
};

/// Fingerprint of every AgglomerationOptions field that shapes the
/// contraction trajectory, plus the caller-supplied salt (scorer kind,
/// input identity).  Budget and checkpoint-cadence fields are excluded
/// on purpose: a resume may legitimately raise the deadline or change
/// the checkpoint directory.
[[nodiscard]] inline std::uint64_t options_fingerprint(const AgglomerationOptions& o) {
  std::uint64_t h = 0x636f6d6d646574ULL;  // "commdet"
  const auto fold = [&h](std::uint64_t v) { h = mix64(h ^ v); };
  fold(static_cast<std::uint64_t>(o.matcher));
  fold(0);  // retired contractor choice; 0 keeps older checkpoints resumable
  fold(std::bit_cast<std::uint64_t>(o.min_coverage));
  fold(static_cast<std::uint64_t>(o.min_communities));
  fold(static_cast<std::uint64_t>(o.max_community_size));
  fold(static_cast<std::uint64_t>(o.max_levels));
  fold(o.track_hierarchy ? 1 : 0);
  fold(o.checkpoint.config_salt);
  return h;
}

[[nodiscard]] inline std::string checkpoint_path(const std::string& dir,
                                                 std::int64_t generation) {
  char name[32];
  std::snprintf(name, sizeof name, "checkpoint-%06lld",
                static_cast<long long>(generation));
  return (std::filesystem::path(dir) / (std::string(name) + std::string(kCheckpointSuffix)))
      .string();
}

/// Generations present in `dir`, newest first.  Non-checkpoint files
/// (including stray `.tmp` from a crashed writer) are ignored.
[[nodiscard]] inline std::vector<std::pair<std::int64_t, std::string>> list_checkpoints(
    const std::string& dir) {
  std::vector<std::pair<std::int64_t, std::string>> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    constexpr std::string_view prefix = "checkpoint-";
    if (name.size() != prefix.size() + 6 + kCheckpointSuffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - kCheckpointSuffix.size(), kCheckpointSuffix.size(),
                     kCheckpointSuffix) != 0)
      continue;
    std::int64_t gen = 0;
    bool digits = true;
    for (std::size_t i = prefix.size(); i < prefix.size() + 6; ++i) {
      if (name[i] < '0' || name[i] > '9') {
        digits = false;
        break;
      }
      gen = gen * 10 + (name[i] - '0');
    }
    if (digits) out.emplace_back(gen, entry.path().string());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

namespace detail {

inline void write_level_stats(SnapshotWriter& w, const LevelStats& l) {
  w.write_i32(l.level);
  w.write_i64(l.nv_before);
  w.write_i64(static_cast<std::int64_t>(l.ne_before));
  w.write_i64(static_cast<std::int64_t>(l.positive_edges));
  w.write_f64(l.max_score);
  w.write_i64(l.pairs_matched);
  w.write_i32(l.match_sweeps);
  w.write_i64(l.nv_after);
  w.write_i64(static_cast<std::int64_t>(l.ne_after));
  w.write_f64(l.coverage);
  w.write_f64(l.modularity);
  w.write_f64(l.score_seconds);
  w.write_f64(l.match_seconds);
  w.write_f64(l.contract_seconds);
}

[[nodiscard]] inline LevelStats read_level_stats(SnapshotReader& r) {
  LevelStats l;
  l.level = r.read_i32();
  l.nv_before = r.read_i64();
  l.ne_before = static_cast<EdgeId>(r.read_i64());
  l.positive_edges = static_cast<EdgeId>(r.read_i64());
  l.max_score = r.read_f64();
  l.pairs_matched = r.read_i64();
  l.match_sweeps = r.read_i32();
  l.nv_after = r.read_i64();
  l.ne_after = static_cast<EdgeId>(r.read_i64());
  l.coverage = r.read_f64();
  l.modularity = r.read_f64();
  l.score_seconds = r.read_f64();
  l.match_seconds = r.read_f64();
  l.contract_seconds = r.read_f64();
  return l;
}

}  // namespace detail

/// Serializes one checkpoint into `path` (crash-atomically).  Throws a
/// structured error on I/O failure; the previously published generation
/// is untouched in every failure mode.
template <VertexId V>
void write_checkpoint_file(const std::string& path, const CheckpointView<V>& st) {
  SnapshotWriter w(path, kCheckpointFormatVersion);
  w.write_u64(st.config_fingerprint);
  w.write_u32(static_cast<std::uint32_t>(sizeof(V) * 8));  // writer's label width
  std::uint32_t flags = 0;
  if (st.vertex_count != nullptr && !st.vertex_count->empty()) flags |= 1u;
  if (st.hierarchy != nullptr) flags |= 2u;
  w.write_u32(flags);
  w.write_i64(st.original_nv);
  w.write_i32(st.next_level);
  w.write_f64(st.elapsed_seconds);

  const CommunityGraph<V>& g = *st.graph;
  w.write_i64(static_cast<std::int64_t>(g.nv));
  w.write_i64(g.total_weight);
  w.write_i64_array(g.bucket_begin);
  w.write_i64_array(g.bucket_end);
  w.write_i64_array(g.self_weight);
  w.write_i64_array(g.volume);
  w.write_i64_array(g.efirst);
  w.write_i64_array(g.esecond);
  w.write_i64_array(g.eweight);

  w.write_i64_array(*st.community);
  if (flags & 1u) w.write_i64_array(*st.vertex_count);

  w.write_i32(static_cast<std::int32_t>(st.levels->size()));
  for (const auto& l : *st.levels) detail::write_level_stats(w, l);

  if (flags & 2u) {
    w.write_i32(static_cast<std::int32_t>(st.hierarchy->size()));
    for (const auto& map : *st.hierarchy) w.write_i64_array(map);
  }
  w.commit();
}

/// Loads and fully validates one checkpoint file.  Throws a structured
/// error on any corruption (bad magic/CRC/size, inconsistent counts,
/// labels out of range); the caller decides whether to fall back.
template <VertexId V>
[[nodiscard]] CheckpointState<V> read_checkpoint_file(const std::string& path) {
  SnapshotReader r(path, kCheckpointFormatVersion);
  CheckpointState<V> st;
  st.config_fingerprint = r.read_u64();
  (void)r.read_u32();  // writer's label width; labels are i64 on disk
  const std::uint32_t flags = r.read_u32();
  st.original_nv = r.read_i64();
  st.next_level = r.read_i32();
  st.elapsed_seconds = r.read_f64();

  const std::int64_t nv = r.read_i64();
  if (nv < 0 || st.original_nv < 0 || st.next_level < 1)
    throw_error(ErrorCode::kIoFormat, Phase::kDriver,
                "checkpoint header counts out of range: " + path);
  if (!fits_vertex_id<V>(nv == 0 ? 0 : nv - 1))
    throw_error(ErrorCode::kIdOverflow, Phase::kDriver,
                "checkpoint community count overflows label type: " + path);
  CommunityGraph<V>& g = st.graph;
  g.nv = static_cast<V>(nv);
  g.total_weight = r.read_i64();
  g.bucket_begin = r.read_i64_array<EdgeId>();
  g.bucket_end = r.read_i64_array<EdgeId>();
  g.self_weight = r.read_i64_array<Weight>();
  g.volume = r.read_i64_array<Weight>();
  g.efirst = r.read_i64_array<V>();
  g.esecond = r.read_i64_array<V>();
  g.eweight = r.read_i64_array<Weight>();

  st.community = r.read_i64_array<V>();
  if (flags & 1u) st.vertex_count = r.read_i64_array<std::int64_t>();

  const std::int32_t num_levels = r.read_i32();
  if (num_levels < 0)
    throw_error(ErrorCode::kIoFormat, Phase::kDriver, "negative level count: " + path);
  st.levels.reserve(static_cast<std::size_t>(num_levels));
  for (std::int32_t i = 0; i < num_levels; ++i)
    st.levels.push_back(detail::read_level_stats(r));

  if (flags & 2u) {
    const std::int32_t depth = r.read_i32();
    if (depth < 0)
      throw_error(ErrorCode::kIoFormat, Phase::kDriver, "negative hierarchy depth: " + path);
    st.hierarchy.reserve(static_cast<std::size_t>(depth));
    for (std::int32_t i = 0; i < depth; ++i)
      st.hierarchy.push_back(r.read_i64_array<V>());
  }
  r.finish();  // everything above is untrusted until the CRC matches

  // Structural sanity on top of the checksum: cheap count/range checks
  // so a wrong-but-checksummed file (e.g. hand-edited) cannot crash the
  // driver.
  const auto nvs = static_cast<std::size_t>(nv);
  const auto ne = static_cast<EdgeId>(g.efirst.size());
  if (g.bucket_begin.size() != nvs || g.bucket_end.size() != nvs ||
      g.self_weight.size() != nvs || g.volume.size() != nvs ||
      g.esecond.size() != g.efirst.size() || g.eweight.size() != g.efirst.size() ||
      st.community.size() != static_cast<std::size_t>(st.original_nv) ||
      (!st.vertex_count.empty() && st.vertex_count.size() != nvs))
    throw_error(ErrorCode::kIoFormat, Phase::kDriver,
                "checkpoint arrays inconsistent with counts: " + path);
  for (std::size_t v = 0; v < nvs; ++v)
    if (g.bucket_begin[v] < 0 || g.bucket_end[v] < g.bucket_begin[v] ||
        g.bucket_end[v] > ne)
      throw_error(ErrorCode::kIoFormat, Phase::kDriver,
                  "checkpoint bucket cursors out of range: " + path);
  for (const V c : st.community)
    if (c < 0 || static_cast<std::int64_t>(c) >= nv)
      throw_error(ErrorCode::kIoFormat, Phase::kDriver,
                  "checkpoint community label out of range: " + path);

  st.source_path = path;
  return st;
}

/// Writes the next checkpoint generation into `dir` (created on demand)
/// and prunes generations beyond `keep_generations`.  Returns the
/// generation number written.  Pruning runs only after the new
/// generation has been durably committed, so the previous generation
/// survives until its replacement is valid on disk.
template <VertexId V>
std::int64_t save_checkpoint(const std::string& dir, const CheckpointView<V>& st,
                             int keep_generations = 2) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec)
    throw_error(ErrorCode::kIoOpen, Phase::kDriver,
                "cannot create checkpoint directory: " + dir + " (" + ec.message() + ")");
  auto existing = list_checkpoints(dir);
  const std::int64_t generation = existing.empty() ? 1 : existing.front().first + 1;
  write_checkpoint_file(checkpoint_path(dir, generation), st);

  const int keep = keep_generations < 1 ? 1 : keep_generations;
  for (std::size_t i = static_cast<std::size_t>(keep) - 1; i < existing.size(); ++i)
    std::filesystem::remove(existing[i].second, ec);  // best-effort prune
  return generation;
}

/// Loads the newest *valid* generation in `dir`: candidates are tried
/// newest-first and any that fail validation (torn, truncated,
/// bit-flipped, wrong version, overflow) are skipped, so one corrupt
/// generation degrades to the one before it rather than to data loss.
/// Returns nullopt when the directory holds no loadable checkpoint.
template <VertexId V>
[[nodiscard]] std::optional<CheckpointState<V>> load_latest_checkpoint(
    const std::string& dir) {
  for (const auto& [generation, path] : list_checkpoints(dir)) {
    try {
      CheckpointState<V> st = read_checkpoint_file<V>(path);
      st.source_generation = generation;
      return st;
    } catch (const std::exception&) {
      continue;  // fall back to the previous generation
    }
  }
  return std::nullopt;
}

}  // namespace commdet
