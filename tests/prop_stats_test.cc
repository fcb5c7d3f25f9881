// Property sweeps for the statistics utilities over random datasets.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"

namespace cnv {
namespace {

// Oracle: the fraction of samples at or below x.
double CdfAt(const Samples& s, double x) {
  const auto& v = s.Values();
  return static_cast<double>(std::count_if(
             v.begin(), v.end(), [x](double y) { return y <= x; })) /
         static_cast<double>(v.size());
}

class StatsSweep : public ::testing::TestWithParam<int> {
 protected:
  Samples RandomSamples(std::size_t n) {
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    Samples s;
    for (std::size_t i = 0; i < n; ++i) {
      s.Add(rng.LogNormal(0.5, 1.2));
    }
    return s;
  }
};

TEST_P(StatsSweep, PercentileIsMonotoneInP) {
  const auto s = RandomSamples(257);
  double prev = s.Percentile(0);
  for (double p = 1; p <= 100; p += 1) {
    const double v = s.Percentile(p);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0), s.Min());
  EXPECT_DOUBLE_EQ(s.Percentile(100), s.Max());
}

TEST_P(StatsSweep, CdfAndPercentileAgree) {
  const auto s = RandomSamples(100);
  for (double p = 5; p <= 100; p += 5) {
    // At least p% of the mass lies at or below the p-th percentile.
    EXPECT_GE(CdfAt(s, s.Percentile(p)) * 100.0, p - 1e-9);
  }
}

TEST_P(StatsSweep, MeanLiesWithinRange) {
  const auto s = RandomSamples(128);
  EXPECT_GE(s.Mean(), s.Min());
  EXPECT_LE(s.Mean(), s.Max());
}

// The order statistics Percentile interpolates between are the samples
// sorted: at the i-th rank it returns the i-th smallest sample.
TEST_P(StatsSweep, SortedIsAPermutation) {
  const auto s = RandomSamples(50);
  auto values = s.Values();
  std::sort(values.begin(), values.end());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double p = 100.0 * static_cast<double>(i) /
                     static_cast<double>(values.size() - 1);
    EXPECT_NEAR(s.Percentile(p), values[i], 1e-9 * (1.0 + values[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsSweep, ::testing::Range(1, 11));

}  // namespace
}  // namespace cnv
