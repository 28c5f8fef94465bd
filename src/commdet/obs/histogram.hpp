// Lock-free latency histograms: cache-line-sharded log2 buckets with
// mergeable snapshots and exact-count percentile readout.
//
// A long-running daemon cannot afford a mutex (or even a shared cache
// line) on its batch/query hot paths, but it does need live p50/p99.
// The compromise mirrors the sharded Counter (obs/metrics.hpp): each
// thread fetch-adds a thread-private shard's bucket, and readers merge
// the shards on demand.  Buckets are log2-spaced — bucket i counts
// values v with bit_width(v) == i, i.e. 2^(i-1) <= v < 2^i — so the
// whole int64 range fits in 64 buckets and recording is a bit_width
// plus one relaxed fetch-add.
//
// "Exact-count" percentiles: the merged per-bucket counts are exact
// (writers quiesced), so the rank of the p-th sample is exact; only the
// reported *value* is quantized to the bucket's inclusive upper bound
// (a factor-of-two ceiling, which is what a log2 histogram can say).
//
// Values are whatever unit the call site picks; the serve layer records
// latencies in integer microseconds via record_seconds(), and names the
// metrics "*_us" so readers know.  Negative values clamp into bucket 0.
//
// Instrumentation discipline matches Counter: resolve once per kernel
// or session ("obs::histogram(name)" is nullptr when no registry is
// installed), then `if (h) h->record(v);` — the disabled cost is one
// predictable branch.
#pragma once

#include <omp.h>

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace commdet::obs {

inline constexpr std::size_t kHistogramCacheLineBytes = 64;

/// Number of log2 buckets: bucket 0 holds v <= 0, bucket i (1..63)
/// holds bit_width(v) == i.  Bucket 63 is the overflow bucket — its
/// upper bound is INT64_MAX, so nothing is ever dropped.
inline constexpr int kHistogramBuckets = 64;

/// Merged, immutable view of a Histogram (or a sum of several): exact
/// per-bucket counts plus the value sum for the mean.
struct HistogramSnapshot {
  std::array<std::int64_t, kHistogramBuckets> buckets{};
  // Negative inputs clamp to 0 before summing; the sum wraps in two's
  // complement, as the shards' fetch_add does.
  std::int64_t sum = 0;

  [[nodiscard]] static constexpr int bucket_index(std::int64_t v) noexcept {
    if (v <= 0) return 0;
    return std::bit_width(static_cast<std::uint64_t>(v));
  }

  /// Inclusive upper bound of bucket i (0, 1, 3, 7, ..., INT64_MAX).
  [[nodiscard]] static constexpr std::int64_t bucket_upper(int i) noexcept {
    if (i <= 0) return 0;
    if (i >= kHistogramBuckets - 1) return std::numeric_limits<std::int64_t>::max();
    return (std::int64_t{1} << i) - 1;
  }

  [[nodiscard]] std::int64_t count() const noexcept {
    std::int64_t c = 0;
    for (const auto b : buckets) c += b;
    return c;
  }

  [[nodiscard]] double mean() const noexcept {
    const std::int64_t c = count();
    return c > 0 ? static_cast<double>(sum) / static_cast<double>(c) : 0.0;
  }

  /// Nearest-rank percentile, p in [0, 1]: the inclusive upper bound of
  /// the bucket holding the ceil(p * count)-th smallest sample (rank 1
  /// for p = 0).  Returns 0 for an empty histogram.
  [[nodiscard]] std::int64_t percentile(double p) const noexcept {
    const std::int64_t c = count();
    if (c <= 0) return 0;
    if (p < 0.0) p = 0.0;
    if (p > 1.0) p = 1.0;
    std::int64_t rank = static_cast<std::int64_t>(std::ceil(p * static_cast<double>(c)));
    if (rank < 1) rank = 1;
    if (rank > c) rank = c;
    std::int64_t seen = 0;
    for (int i = 0; i < kHistogramBuckets; ++i) {
      seen += buckets[i];
      if (seen >= rank) return bucket_upper(i);
    }
    return bucket_upper(kHistogramBuckets - 1);  // unreachable
  }

  void merge(const HistogramSnapshot& other) noexcept {
    for (int i = 0; i < kHistogramBuckets; ++i) buckets[i] += other.buckets[i];
    sum = static_cast<std::int64_t>(static_cast<std::uint64_t>(sum) +
                                    static_cast<std::uint64_t>(other.sum));
  }
};

namespace detail {

struct alignas(kHistogramCacheLineBytes) HistogramShard {
  std::array<std::atomic<std::int64_t>, kHistogramBuckets> buckets{};
  std::atomic<std::int64_t> sum{0};
};

}  // namespace detail

/// Concurrent log2 histogram.  record() touches only the calling
/// thread's shard (same slot policy as Counter); snapshot() merges.
class Histogram {
 public:
  Histogram() : shards_(histogram_shard_count()), mask_(shards_.size() - 1) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Concurrency-safe from any thread, including inside OpenMP regions.
  void record(std::int64_t v) noexcept {
    auto& s = shards_[static_cast<std::size_t>(omp_get_thread_num()) & mask_];
    s.buckets[static_cast<std::size_t>(HistogramSnapshot::bucket_index(v))].fetch_add(
        1, std::memory_order_relaxed);
    s.sum.fetch_add(v > 0 ? v : 0, std::memory_order_relaxed);
  }

  /// Records a duration in integer microseconds (the serve layer's
  /// latency unit; sub-microsecond durations land in bucket 0).
  void record_seconds(double seconds) noexcept {
    if (!(seconds > 0.0)) {  // negative or NaN: clamp into bucket 0
      record(0);
      return;
    }
    const double us = seconds * 1e6;
    record(us >= 9.2e18 ? std::numeric_limits<std::int64_t>::max()
                        : static_cast<std::int64_t>(std::llround(us)));
  }

  /// Merged view; exact once writers have quiesced, a consistent-enough
  /// sample while they run (each fetch-add is atomic).
  [[nodiscard]] HistogramSnapshot snapshot() const noexcept {
    HistogramSnapshot out;
    std::uint64_t sum = 0;
    for (const auto& s : shards_) {
      for (int i = 0; i < kHistogramBuckets; ++i)
        out.buckets[i] += s.buckets[static_cast<std::size_t>(i)].load(
            std::memory_order_relaxed);
      sum += static_cast<std::uint64_t>(s.sum.load(std::memory_order_relaxed));
    }
    out.sum = static_cast<std::int64_t>(sum);
    return out;
  }

 private:
  // Mirrors obs::detail::shard_count() without depending on metrics.hpp
  // (metrics.hpp includes this header to put histograms in the registry).
  [[nodiscard]] static std::size_t histogram_shard_count() noexcept {
    std::size_t n = 1;
    const auto threads = static_cast<std::size_t>(omp_get_max_threads());
    while (n < threads && n < 256) n <<= 1;
    return n;
  }

  std::vector<detail::HistogramShard> shards_;
  std::size_t mask_;
};

}  // namespace commdet::obs
