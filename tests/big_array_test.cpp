#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "commdet/gen/erdos_renyi.hpp"
#include "commdet/gen/planted_partition.hpp"
#include "commdet/gen/rmat.hpp"
#include "commdet/gen/watts_strogatz.hpp"
#include "commdet/platform/platform_info.hpp"
#include "commdet/util/big_array.hpp"

namespace commdet {
namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

/// Elements of T that fill `bytes`.
template <class T>
constexpr std::size_t elements(std::size_t bytes) {
  return bytes / sizeof(T);
}

TEST(BigArray, MappedOnlyFromOneHugePage) {
  EXPECT_FALSE(detail::big_block_is_mapped(0));
  EXPECT_FALSE(detail::big_block_is_mapped(kHugePageBytes - 1));
  EXPECT_EQ(detail::big_block_is_mapped(kHugePageBytes), kBigArrayMapsBlocks);
  EXPECT_EQ(detail::big_block_is_mapped(5 * kHugePageBytes + 17), kBigArrayMapsBlocks);
}

TEST(BigArray, AdviceCoversTheWholeHugePagesOnly) {
  EXPECT_EQ(detail::huge_page_advice_bytes(kHugePageBytes), kHugePageBytes);
  EXPECT_EQ(detail::huge_page_advice_bytes(kHugePageBytes + 4096), kHugePageBytes);
  EXPECT_EQ(detail::huge_page_advice_bytes(2 * kHugePageBytes - 1), kHugePageBytes);
  EXPECT_EQ(detail::huge_page_advice_bytes(5 * kMiB), 4 * kMiB);
  EXPECT_EQ(detail::huge_page_advice_bytes(kHugePageBytes - 1), 0u);
}

TEST(BigArray, LargeBlockIsHugePageAligned) {
  if (!kBigArrayMapsBlocks) GTEST_SKIP() << "sanitizer build: every block comes from operator new";
  for (const std::size_t bytes : {kHugePageBytes, kHugePageBytes + 8, 3 * kHugePageBytes + 4096}) {
    BigVector<std::int64_t> v(elements<std::int64_t>(bytes));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kHugePageBytes, 0u) << bytes;
    v.back() = 7;
    v.front() = 3;
    EXPECT_EQ(v.front() + v.back(), 10);
  }
}

TEST(BigArray, ResizeWithValueAndAssignWriteTheValue) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{5}, elements<std::int32_t>(3 * kMiB)}) {
    BigVector<std::int32_t> v;
    v.resize(n, -7);
    ASSERT_EQ(v.size(), n);
    for (const auto x : v) ASSERT_EQ(x, -7);
    v.assign(n + 3, 11);
    ASSERT_EQ(v.size(), n + 3);
    for (const auto x : v) ASSERT_EQ(x, 11);
    v.resize(n + 10, 4);
    for (std::size_t i = n + 3; i < n + 10; ++i) ASSERT_EQ(v[i], 4);
  }
}

TEST(BigArray, PushBackGrowthAcrossTheThresholdKeepsTheContents) {
  BigVector<std::int64_t> v;
  const std::size_t n = elements<std::int64_t>(kHugePageBytes) * 2 + 1;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<std::int64_t>(i * 3 + 1));
  ASSERT_EQ(v.size(), n);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(v[i], static_cast<std::int64_t>(i * 3 + 1));
  v.shrink_to_fit();
  EXPECT_EQ(v[n - 1], static_cast<std::int64_t>((n - 1) * 3 + 1));
  v.resize(3);
  v.shrink_to_fit();
  EXPECT_EQ(v, (BigVector<std::int64_t>{1, 4, 7}));
}

TEST(BigArray, CopyMoveSwapAndEquality) {
  const std::size_t n = elements<double>(kHugePageBytes) + 9;
  BigVector<double> big(n, 2.5);
  big[n - 1] = -1.0;
  const BigVector<double> small{1.0, 2.0};

  BigVector<double> copy = big;
  EXPECT_EQ(copy, big);
  EXPECT_NE(copy.data(), big.data());
  copy[0] = 9.0;
  EXPECT_NE(copy, big);

  BigVector<double> moved = std::move(copy);
  EXPECT_EQ(moved[0], 9.0);
  EXPECT_EQ(moved[n - 1], -1.0);

  BigVector<double> other = small;
  other.swap(moved);
  EXPECT_EQ(other.size(), n);
  EXPECT_EQ(moved, small);
  other = small;
  EXPECT_EQ(other, small);

  BigVector<double> empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty, BigVector<double>{});
  empty.resize(0);
  empty.shrink_to_fit();
  EXPECT_EQ(empty.size(), 0u);
}

TEST(BigArray, DefaultInitializedElementsArePoisonedInDebug) {
#if defined(NDEBUG) || defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "the poison fill is on only in builds without NDEBUG (and not under ASan)";
#else
  for (const std::size_t n : {std::size_t{7}, elements<std::uint32_t>(kHugePageBytes) + 1}) {
    BigVector<std::uint32_t> v;
    v.resize(n);
    for (const auto x : v) ASSERT_EQ(x, 0xA5A5A5A5u);
  }
#endif
}

/// The THPeligible value of the /proc/self/smaps entry holding `addr`,
/// or -1 when no entry (or no such line) is found.
int thp_eligible(const void* addr) {
  const auto at = reinterpret_cast<std::uintptr_t>(addr);
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
    char dash = 0;
    std::istringstream head(line);
    if (head >> std::hex >> lo >> dash >> hi && dash == '-') {
      inside = lo <= at && at < hi;
    } else if (inside && line.starts_with("THPeligible:")) {
      return std::stoi(line.substr(std::strlen("THPeligible:")));
    }
  }
  return -1;
}

TEST(BigArray, LargeBlockIsThpEligible) {
  if (!kBigArrayMapsBlocks) GTEST_SKIP() << "sanitizer build: every block comes from operator new";
  const std::string mode = detect_platform().thp_mode;
  if (mode == "never" || mode == "unknown") GTEST_SKIP() << "host THP mode: " << mode;
  BigVector<std::int64_t> v(elements<std::int64_t>(2 * kHugePageBytes + 4096), 1);
  EXPECT_EQ(thp_eligible(v.data()), 1) << "THP mode " << mode;
}

/// FNV-1a over the vertex count and every edge's (u, v, w), widened.
template <VertexId V>
std::uint64_t edge_hash(const EdgeList<V>& g) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&](std::int64_t x) {
    h = (h ^ static_cast<std::uint64_t>(x)) * 1099511628211ull;
  };
  mix(static_cast<std::int64_t>(g.num_vertices));
  for (const auto& e : g.edges) {
    mix(e.u);
    mix(e.v);
    mix(e.w);
  }
  return h;
}

// The generators size their output with resize(n), which no longer
// writes the elements; every edge must come from the generating pass.
// The hashes were taken from the generators before they moved to
// BigVector.  Each output is at least one huge page.
template <VertexId V>
void expect_pinned_generator_outputs() {
  RmatParams rmat;
  rmat.scale = 14;
  rmat.edge_factor = 16;
  rmat.seed = 7;
  const auto r = generate_rmat<V>(rmat);
  EXPECT_EQ(r.num_edges(), 262144);
  EXPECT_EQ(edge_hash(r), 0xe599404bd18225d9ull);

  PlantedPartitionParams sbm;
  sbm.num_vertices = 1 << 14;
  sbm.num_blocks = 64;
  sbm.seed = 5;
  const auto s = generate_planted_partition<V>(sbm);
  EXPECT_EQ(s.num_edges(), 131072);
  EXPECT_EQ(edge_hash(s), 0x679ab780814ebe76ull);

  const auto er = generate_erdos_renyi<V>(1 << 14, 200000, 3);
  EXPECT_EQ(er.num_edges(), 200000);
  EXPECT_EQ(edge_hash(er), 0xe1bb796511ac94dfull);

  WattsStrogatzParams ws;
  ws.num_vertices = 1 << 15;
  ws.neighbors_per_side = 4;
  ws.seed = 9;
  const auto w = generate_watts_strogatz<V>(ws);
  EXPECT_EQ(w.num_edges(), 131072);
  EXPECT_EQ(edge_hash(w), 0xaf1332435ebc0236ull);
}

TEST(BigArray, GeneratorOutputsArePinned32) { expect_pinned_generator_outputs<std::int32_t>(); }
TEST(BigArray, GeneratorOutputsArePinned64) { expect_pinned_generator_outputs<std::int64_t>(); }

}  // namespace
}  // namespace commdet
