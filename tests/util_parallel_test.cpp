#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "commdet/util/atomics.hpp"
#include "commdet/util/compact.hpp"
#include "commdet/util/histogram.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/prefix_sum.hpp"
#include "commdet/util/rng.hpp"
#include "commdet/util/sort.hpp"

namespace commdet {
namespace {

TEST(ParallelFor, VisitsEveryIndexOnce) {
  std::vector<std::int64_t> hits(1000, 0);
  parallel_for(1000, [&](std::int64_t i) { atomic_fetch_add(hits[static_cast<std::size_t>(i)], std::int64_t{1}); });
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
  std::int64_t total = 0;
  parallel_for(1000, [&](std::int64_t) { atomic_fetch_add(total, std::int64_t{1}); });
  EXPECT_EQ(total, 1000);
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

  const auto total = exclusive_prefix_sum(std::span<std::int64_t>(values));
  EXPECT_EQ(total, expected_total);
  EXPECT_EQ(values, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PrefixSumSweep,
                         ::testing::Values<std::int64_t>(0, 1, 2, 7, 64, 1000, 65537));

TEST(Compact, PreservesOrderOfSurvivors) {
  std::vector<int> input(10000);
  std::iota(input.begin(), input.end(), 0);
  const auto kept =
      parallel_compact(std::span<const int>(input), [](int v) { return v % 7 == 0; });
  ASSERT_FALSE(kept.empty());
  for (std::size_t i = 0; i < kept.size(); ++i)
    EXPECT_EQ(kept[i], static_cast<int>(i) * 7);
}

TEST(Compact, EmptyInputAndNoSurvivors) {
  const std::vector<int> empty;
  EXPECT_TRUE(parallel_compact(std::span<const int>(empty), [](int) { return true; }).empty());
  const std::vector<int> all{1, 2, 3};
  EXPECT_TRUE(parallel_compact(std::span<const int>(all), [](int) { return false; }).empty());
}

TEST(Histogram, CountsKeys) {
  std::vector<std::int32_t> keys;
  for (int k = 0; k < 10; ++k)
    for (int c = 0; c <= k; ++c) keys.push_back(k);
  const auto counts = parallel_histogram(std::span<const std::int32_t>(keys), 10);
  for (int k = 0; k < 10; ++k) EXPECT_EQ(counts[static_cast<std::size_t>(k)], k + 1);
}

class SortSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SortSweep, MatchesStdSort) {
  const std::int64_t n = GetParam();
  CounterRng rng(31);
  std::vector<std::uint64_t> values(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) values[static_cast<std::size_t>(i)] = rng.at(static_cast<std::uint64_t>(i));
  auto expected = values;
  std::sort(expected.begin(), expected.end());
  parallel_sort(values.begin(), values.end());
  EXPECT_EQ(values, expected);
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

TEST(Atomics, FetchMaxAndMin) {
  std::int64_t v = 10;
  EXPECT_FALSE(atomic_fetch_max(v, std::int64_t{5}));
  EXPECT_EQ(v, 10);
  EXPECT_TRUE(atomic_fetch_max(v, std::int64_t{20}));
  EXPECT_EQ(v, 20);
  EXPECT_TRUE(atomic_fetch_min(v, std::int64_t{3}));
  EXPECT_EQ(v, 3);
}

TEST(Atomics, ConcurrentFetchAddIsExact) {
  std::int64_t total = 0;
  parallel_for(100000, [&](std::int64_t) { atomic_fetch_add(total, std::int64_t{1}); });
  EXPECT_EQ(total, 100000);
}

TEST(Atomics, AddDoubleAccumulates) {
  double total = 0;
  parallel_for(10000, [&](std::int64_t) { atomic_add_double(total, 0.5); });
  EXPECT_DOUBLE_EQ(total, 5000.0);
}

}  // namespace
}  // namespace commdet
