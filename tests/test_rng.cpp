#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace autohet {
namespace {

TEST(Rng, DeterministicForSeed) {
  common::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  common::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  common::Rng rng(3);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  common::Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 7.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 7.0);
  }
}

TEST(Rng, UniformU64CoversRangeWithoutBias) {
  common::Rng rng(5);
  constexpr std::uint64_t kBuckets = 7;
  std::vector<int> counts(kBuckets, 0);
  constexpr int kN = 70000;
  for (int i = 0; i < kN; ++i) {
    const std::uint64_t v = rng.uniform_u64(kBuckets);
    ASSERT_LT(v, kBuckets);
    ++counts[v];
  }
  for (std::uint64_t b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kN / static_cast<int>(kBuckets), 600) << b;
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  common::Rng rng(6);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  common::Rng rng(7);
  constexpr int kN = 50000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / kN;
  const double var = sumsq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, NormalWithParameters) {
  common::Rng rng(8);
  constexpr int kN = 50000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += rng.normal(5.0, 0.5);
  EXPECT_NEAR(sum / kN, 5.0, 0.02);
}

TEST(Rng, ChildStreamsAreIndependent) {
  common::Rng parent(9);
  common::Rng c1 = parent.child(1);
  common::Rng c2 = parent.child(2);
  common::Rng c1_again = parent.child(1);
  EXPECT_EQ(c1(), c1_again());
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1() == c2()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<common::Rng>);
  SUCCEED();
}

TEST(Splitmix64, KnownSequenceIsStable) {
  std::uint64_t state = 0;
  const std::uint64_t first = common::splitmix64(state);
  const std::uint64_t second = common::splitmix64(state);
  EXPECT_NE(first, second);
  std::uint64_t state2 = 0;
  EXPECT_EQ(common::splitmix64(state2), first);
}

TEST(Rng, FillBits53MatchesSingleDraws) {
  common::Rng a(77), b(77);
  std::vector<std::uint64_t> block(1000);
  a.fill_bits53(block.data(), 7);  // an odd head, then a long block
  a.fill_bits53(block.data() + 7, block.size() - 7);
  for (const std::uint64_t k : block) EXPECT_EQ(k, b.uniform_bits53());
  // Both generators sit at the same stream position afterwards.
  EXPECT_EQ(a(), b());
}

}  // namespace
}  // namespace autohet
