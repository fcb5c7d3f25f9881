#include "util/rng.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace cnv {
namespace {

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(1);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, UniformIntRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.UniformInt(2, 1), std::invalid_argument);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1'000'000), b.UniformInt(0, 1'000'000));
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1'000'000) == b.UniformInt(0, 1'000'000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliClampsOutOfRange) {
  Rng rng(7);
  EXPECT_FALSE(rng.Bernoulli(-0.5));
  EXPECT_TRUE(rng.Bernoulli(1.5));
}

TEST(RngTest, BernoulliRoughlyFair) {
  Rng rng(7);
  int heads = 0;
  for (int i = 0; i < 10'000; ++i) {
    if (rng.Bernoulli(0.5)) ++heads;
  }
  EXPECT_NEAR(heads, 5000, 300);
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) sum += rng.Uniform(0.0, 10.0);
  EXPECT_NEAR(sum / 10'000, 5.0, 0.2);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 20'000; ++i) sum += rng.Exponential(2.5);
  EXPECT_NEAR(sum / 20'000, 2.5, 0.1);
}

TEST(RngTest, ExponentialRejectsNonPositiveMean) {
  Rng rng(5);
  EXPECT_THROW(rng.Exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.Exponential(-1.0), std::invalid_argument);
}

TEST(RngTest, NormalMeanAndSpread) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, PickCoversAllElements) {
  Rng rng(13);
  const std::vector<int> items = {1, 2, 3};
  std::array<int, 4> counts{};
  for (int i = 0; i < 3000; ++i) {
    ++counts[static_cast<std::size_t>(rng.Pick(items))];
  }
  EXPECT_EQ(counts[0], 0);
  for (int v = 1; v <= 3; ++v) EXPECT_GT(counts[static_cast<std::size_t>(v)], 800);
}

TEST(RngTest, PickRejectsEmpty) {
  Rng rng(13);
  const std::vector<int> empty;
  EXPECT_THROW(rng.Pick(empty), std::invalid_argument);
}


}  // namespace
}  // namespace cnv
