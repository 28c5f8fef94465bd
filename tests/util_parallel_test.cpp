#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "commdet/util/compact.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/prefix_sum.hpp"
#include "commdet/util/rng.hpp"
#include "commdet/util/sort.hpp"

namespace commdet {
namespace {

/// Runs `f` with the OpenMP thread count set to each of `counts`, then
/// restores it.
template <typename F>
void at_threads(std::initializer_list<int> counts, F&& f) {
  const int saved = omp_get_max_threads();
  for (const int t : counts) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    omp_set_num_threads(t);
    f();
  }
  omp_set_num_threads(saved);
}

/// Expects `f` to throw std::runtime_error carrying `message`.
template <typename F>
void expect_rethrown(F&& f, const char* message) {
  try {
    f();
    ADD_FAILURE() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), message);
  }
}

TEST(ParallelFor, VisitsEveryIndexOnce) {
  std::vector<std::int64_t> hits(1000, 0);
  parallel_for(1000, [&](std::int64_t i) {
    std::atomic_ref<std::int64_t>(hits[static_cast<std::size_t>(i)]).fetch_add(1);
  });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](auto h) { return h == 1; }));
}

TEST(ParallelSum, MatchesSerialSum) {
  const std::int64_t n = 100000;
  const auto total = parallel_sum<std::int64_t>(n, [](std::int64_t i) { return i; });
  EXPECT_EQ(total, n * (n - 1) / 2);
}

TEST(ParallelCount, CountsPredicate) {
  EXPECT_EQ(parallel_count(1000, [](std::int64_t i) { return i % 3 == 0; }), 334);
}

// Exceptions thrown inside the parallel wrappers must be rethrown on the
// calling thread, not escape the OpenMP region (which is UB and in
// practice std::terminate).  One collector per region captures the first
// exception; remaining iterations are skipped.

TEST(ParallelExceptions, ParallelForRethrowsOnCallingThread) {
  EXPECT_THROW(
      parallel_for(1000, [](std::int64_t i) {
        if (i == 500) throw std::runtime_error("boom at 500");
      }),
      std::runtime_error);
}

TEST(ParallelExceptions, ParallelForDynamicRethrows) {
  EXPECT_THROW(
      parallel_for_dynamic(1000, [](std::int64_t i) {
        if (i == 3) throw std::logic_error("boom");
      }),
      std::logic_error);
}

TEST(ParallelExceptions, ParallelSumRethrows) {
  EXPECT_THROW((void)parallel_sum<std::int64_t>(1000,
                                                [](std::int64_t i) -> std::int64_t {
                                                  if (i == 999) throw std::runtime_error("sum");
                                                  return i;
                                                }),
               std::runtime_error);
}

TEST(ParallelExceptions, ParallelCountRethrows) {
  EXPECT_THROW((void)parallel_count(1000,
                                    [](std::int64_t i) -> bool {
                                      if (i == 0) throw std::runtime_error("count");
                                      return true;
                                    }),
               std::runtime_error);
}

TEST(ParallelExceptions, ParallelMaxRethrows) {
  EXPECT_THROW((void)parallel_max(1000, std::int64_t{0},
                                  [](std::int64_t i) -> std::int64_t {
                                    if (i == 123) throw std::runtime_error("max");
                                    return i;
                                  }),
               std::runtime_error);
}

TEST(ParallelExceptions, MessageSurvivesPropagation) {
  try {
    parallel_for(100, [](std::int64_t i) {
      if (i == 42) throw std::runtime_error("very specific payload");
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "very specific payload");
  }
}

TEST(ParallelExceptions, ExactlyOneExceptionIsCaptured) {
  // Every iteration throws; exactly one must be claimed and rethrown,
  // the rest swallowed — never nested rethrow, never terminate.
  std::int64_t seen = 0;
  try {
    parallel_for(10000, [](std::int64_t) { throw std::runtime_error("any"); });
  } catch (const std::runtime_error&) {
    ++seen;
  }
  EXPECT_EQ(seen, 1);
}

TEST(ParallelExceptions, WorkAfterFailedRegionStillRuns) {
  // Containment leaves the thread pool usable for the next region.
  try {
    parallel_for(100, [](std::int64_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(parallel_count(1000, [](std::int64_t) { return true; }), 1000);
}

// The primitives built on the helpers contain throws too, at 4 threads
// and on inputs large enough to open regions.
TEST(ParallelExceptions, ParallelSortThrowingComparatorRethrows) {
  at_threads({4}, [] {
    std::vector<int> values(1 << 18);
    std::iota(values.rbegin(), values.rend(), 0);
    expect_rethrown([&] {
      parallel_sort(values.begin(), values.end(), [](int a, int b) {
        if (a == 12345 || b == 12345) throw std::runtime_error("comparator");
        return a < b;
      });
    }, "comparator");
  });
}

TEST(ParallelExceptions, ParallelCompactThrowingPredicateOrMapRethrows) {
  at_threads({4}, [] {
    std::vector<int> input(1 << 18);
    std::iota(input.begin(), input.end(), 0);
    expect_rethrown([&] {
      (void)parallel_compact(std::span<const int>(input), [](int v) {
        if (v == 200000) throw std::runtime_error("predicate");
        return v % 2 == 0;
      });
    }, "predicate");
    expect_rethrown([&] {
      (void)parallel_compact(std::span<const int>(input), [](int v) { return v % 2 == 0; },
                             [](int v) {
                               if (v == 100000) throw std::runtime_error("map");
                               return v;
                             });
    }, "map");
  });
}

TEST(ParallelExceptions, PerThreadStateFactoryOrBodyRethrows) {
  at_threads({4}, [] {
    expect_rethrown([] {
      (void)parallel_for_each_thread(
          1000, kStaticSchedule,
          []() -> std::int64_t { throw std::runtime_error("factory"); },
          [](std::int64_t& acc, std::int64_t i) { acc += i; });
    }, "factory");
    expect_rethrown([] {
      (void)parallel_for_each_thread(
          1000, dynamic_schedule(8), [] { return std::int64_t{0}; },
          [](std::int64_t& acc, std::int64_t i) {
            if (i == 777) throw std::runtime_error("body");
            acc += i;
          });
    }, "body");
  });
}

TEST(ParallelExceptions, ChunkPrivateBodyRethrows) {
  at_threads({4}, [] {
    std::vector<std::int64_t> out(16, 0);
    expect_rethrown([&] {
      parallel_chunk_add(1000, 4, std::array{std::span<std::int64_t>(out)},
                         [](std::int64_t begin, std::int64_t, const auto&) {
                           if (begin > 0) throw std::runtime_error("chunk");
                         });
    }, "chunk");
  });
}

TEST(ParallelForEachThread, ReturnsOneStatePerThreadSummingToTheSerialResult) {
  at_threads({1, 3, 4}, [] {
    const std::int64_t n = 100000;
    for (const Schedule schedule : {kStaticSchedule, dynamic_schedule(64)}) {
      const auto states = parallel_for_each_thread(
          n, schedule, [] { return std::pair<std::int64_t, std::int64_t>{0, 0}; },
          [](auto& acc, std::int64_t i) {
            acc.first += i;
            ++acc.second;
          });
      EXPECT_LE(states.size(), static_cast<std::size_t>(omp_get_max_threads()));
      std::int64_t sum = 0, count = 0;
      for (const auto& [s, c] : states) {
        sum += s;
        count += c;
      }
      EXPECT_EQ(sum, n * (n - 1) / 2);
      EXPECT_EQ(count, n);
    }
  });
}

TEST(ExceptionCollector, ManualUseCapturesFirstOnly) {
  ExceptionCollector errors;
  EXPECT_FALSE(errors.armed());
  errors.run([] { throw std::runtime_error("first"); });
  EXPECT_TRUE(errors.armed());
  errors.run([] { throw std::runtime_error("second"); });
  try {
    errors.rethrow_if_armed();
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ParallelMax, FindsMaximum) {
  EXPECT_EQ(parallel_max<std::int64_t>(1000, -1, [](std::int64_t i) { return (i * 37) % 1000; }), 999);
  EXPECT_EQ(parallel_max<std::int64_t>(0, -5, [](std::int64_t) { return 0; }), -5);
}

class PrefixSumSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(PrefixSumSweep, ExclusiveMatchesSerialReference) {
  const std::int64_t n = GetParam();
  CounterRng rng(17);
  std::vector<std::int64_t> values(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    values[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(i), 100));

  std::vector<std::int64_t> expected(values.size());
  std::exclusive_scan(values.begin(), values.end(), expected.begin(), std::int64_t{0});
  const std::int64_t expected_total = std::reduce(values.begin(), values.end(), std::int64_t{0});

  at_threads({1, 3, 4}, [&] {
    auto work = values;
    EXPECT_EQ(exclusive_prefix_sum(std::span<std::int64_t>(work)), expected_total);
    EXPECT_EQ(work, expected);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, PrefixSumSweep,
                         ::testing::Values<std::int64_t>(0, 1, 2, 7, 64, 1000, 65537));

TEST(Compact, PreservesOrderOfSurvivors) {
  std::vector<int> input(100000);  // several blocks of at least 8192
  std::iota(input.begin(), input.end(), 0);
  at_threads({1, 3, 4}, [&] {
    const auto kept =
        parallel_compact(std::span<const int>(input), [](int v) { return v % 7 == 0; });
    ASSERT_EQ(kept.size(), 14286u);
    for (std::size_t i = 0; i < kept.size(); ++i)
      EXPECT_EQ(kept[i], static_cast<int>(i) * 7);
  });
}

TEST(Compact, EmptyInputAndNoSurvivors) {
  at_threads({1, 3, 4}, [] {
    const std::vector<int> empty;
    EXPECT_TRUE(
        parallel_compact(std::span<const int>(empty), [](int) { return true; }).empty());
    const std::vector<int> all{1, 2, 3};
    EXPECT_TRUE(parallel_compact(std::span<const int>(all), [](int) { return false; }).empty());
  });
}

TEST(Histogram, CountsKeys) {
  std::vector<std::int32_t> keys;
  for (int k = 0; k < 10; ++k)
    for (int c = 0; c <= k; ++c) keys.push_back(k);
  const auto count = [&](std::int64_t begin, std::int64_t end, const auto& acc) {
    for (auto i = static_cast<std::size_t>(begin); i < static_cast<std::size_t>(end); ++i)
      ++acc[0][static_cast<std::size_t>(keys[i])];
  };
  for (const std::int64_t nchunks : {1, 3, 55}) {
    std::vector<std::int64_t> counts(10, 0);
    parallel_chunk_add(static_cast<std::int64_t>(keys.size()), nchunks,
                       std::array{std::span<std::int64_t>(counts)}, count);
    for (int k = 0; k < 10; ++k) EXPECT_EQ(counts[static_cast<std::size_t>(k)], k + 1);
  }
}

class SortSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SortSweep, MatchesStdSort) {
  const std::int64_t n = GetParam();
  CounterRng rng(31);
  std::vector<std::uint64_t> values(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) values[static_cast<std::size_t>(i)] = rng.at(static_cast<std::uint64_t>(i));
  auto expected = values;
  std::sort(expected.begin(), expected.end());
  at_threads({1, 3, 4}, [&] {
    auto work = values;
    parallel_sort(work.begin(), work.end());
    EXPECT_EQ(work, expected);
  });
}

/// The merge sort parallel_sort runs, written serially: halve until a
/// piece holds at most 2^14 elements, std::sort the leaves,
/// std::inplace_merge on the way up.
template <typename It, typename Compare>
void reference_merge_sort(It first, It last, Compare comp) {
  const auto n = std::distance(first, last);
  if (n <= (1 << 14)) {
    std::sort(first, last, comp);
    return;
  }
  const It mid = first + n / 2;
  reference_merge_sort(first, mid, comp);
  reference_merge_sort(mid, last, comp);
  std::inplace_merge(first, mid, last, comp);
}

TEST_P(SortSweep, TiesKeepTheOrderOfTheSerialRecursion) {
  // The comparator reads only the key, so equal keys carrying different
  // payloads show where each tie lands.
  const std::int64_t n = GetParam();
  CounterRng rng(37);
  std::vector<std::pair<std::uint32_t, std::int64_t>> values(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    values[static_cast<std::size_t>(i)] = {
        static_cast<std::uint32_t>(rng.below(static_cast<std::uint64_t>(i), 64)), i};
  const auto by_key = [](const auto& a, const auto& b) { return a.first < b.first; };
  auto expected = values;
  reference_merge_sort(expected.begin(), expected.end(), by_key);
  at_threads({1, 3, 4}, [&] {
    auto work = values;
    parallel_sort(work.begin(), work.end(), by_key);
    EXPECT_EQ(work, expected);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, SortSweep,
                         ::testing::Values<std::int64_t>(0, 1, 2, 100, 100000, 300000));

TEST(Sort, AdversarialInputs) {
  // Already sorted, reverse sorted, and all-equal inputs.
  std::vector<int> sorted(100000);
  std::iota(sorted.begin(), sorted.end(), 0);
  auto work = sorted;
  parallel_sort(work.begin(), work.end());
  EXPECT_EQ(work, sorted);

  std::vector<int> reversed(sorted.rbegin(), sorted.rend());
  parallel_sort(reversed.begin(), reversed.end());
  EXPECT_EQ(reversed, sorted);

  std::vector<int> equal(100000, 7);
  parallel_sort(equal.begin(), equal.end());
  EXPECT_TRUE(std::all_of(equal.begin(), equal.end(), [](int v) { return v == 7; }));

  // Custom comparator: descending.
  work = sorted;
  parallel_sort(work.begin(), work.end(), std::greater<>{});
  EXPECT_TRUE(std::is_sorted(work.begin(), work.end(), std::greater<>{}));
}

TEST(PrefixSum, AdversarialInputs) {
  // All zeros, single large values, alternating signs.
  std::vector<std::int64_t> zeros(100000, 0);
  EXPECT_EQ(exclusive_prefix_sum(std::span<std::int64_t>(zeros)), 0);

  std::vector<std::int64_t> alternating(100001);
  for (std::size_t i = 0; i < alternating.size(); ++i)
    alternating[i] = (i % 2 == 0) ? 5 : -5;
  const auto total = exclusive_prefix_sum(std::span<std::int64_t>(alternating));
  EXPECT_EQ(total, 5);  // odd count, starts and ends with +5
  EXPECT_EQ(alternating[0], 0);
  EXPECT_EQ(alternating[2], 0);  // +5 -5
}

}  // namespace
}  // namespace commdet
