#include "qdcbir/core/rng.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace qdcbir {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformDoubleRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) counts[rng.UniformInt(10)]++;
  for (const int c : counts) {
    EXPECT_GT(c, n / 10 - 400);
    EXPECT_LT(c, n / 10 + 400);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.UniformInt(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(17);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, GaussianWithParameters) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, GaussianIsBoxMullerOfTwoUniformsCosineFirst) {
  Rng rng(31), uniforms(31);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.has_cached_gaussian());
    const double u1 = uniforms.UniformDouble();
    const double u2 = uniforms.UniformDouble();
    const GaussianPair pair = BoxMuller(u1, u2);
    EXPECT_EQ(rng.Gaussian(), pair.cos_part);
    EXPECT_TRUE(rng.has_cached_gaussian());
    EXPECT_EQ(rng.Gaussian(), pair.sin_part);
  }
  // u1 == 0 is clamped, not log(0).
  EXPECT_TRUE(std::isfinite(BoxMuller(0.0, 0.3).cos_part));
}

TEST(RngTest, FillUniformMatchesUniformDoubleCalls) {
  Rng a(37), b(37);
  std::vector<double> filled(257);
  a.FillUniform(filled.data(), filled.size());
  for (double u : filled) EXPECT_EQ(u, b.UniformDouble());
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(29);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(31);
  const std::vector<std::size_t> sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const std::size_t i : sample) EXPECT_LT(i, 100u);
}

TEST(RngTest, SampleWithoutReplacementClampsToPopulation) {
  Rng rng(37);
  const std::vector<std::size_t> sample = rng.SampleWithoutReplacement(5, 50);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(41);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(55);
  Rng forked = a.Fork();
  // The fork differs from the parent's continued stream.
  EXPECT_NE(forked.NextUint64(), a.NextUint64());
}

}  // namespace
}  // namespace qdcbir
