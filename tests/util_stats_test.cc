#include "util/stats.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace cnv {
namespace {

TEST(SamplesTest, EmptyQueriesThrow) {
  Samples s;
  EXPECT_TRUE(s.Empty());
  EXPECT_THROW(s.Min(), std::logic_error);
  EXPECT_THROW(s.Max(), std::logic_error);
  EXPECT_THROW(s.Mean(), std::logic_error);
  EXPECT_THROW(s.Percentile(50), std::logic_error);
}

TEST(SamplesTest, SingleValue) {
  Samples s({7.0});
  EXPECT_EQ(s.Min(), 7.0);
  EXPECT_EQ(s.Max(), 7.0);
  EXPECT_EQ(s.Mean(), 7.0);
  EXPECT_EQ(s.Median(), 7.0);
  EXPECT_EQ(s.Percentile(0), 7.0);
  EXPECT_EQ(s.Percentile(100), 7.0);
}

TEST(SamplesTest, BasicOrderStatistics) {
  Samples s({5, 1, 4, 2, 3});
  EXPECT_EQ(s.Count(), 5u);
  EXPECT_EQ(s.Min(), 1);
  EXPECT_EQ(s.Max(), 5);
  EXPECT_EQ(s.Median(), 3);
  EXPECT_DOUBLE_EQ(s.Mean(), 3.0);
}

TEST(SamplesTest, PercentileInterpolates) {
  Samples s({0, 10});
  EXPECT_DOUBLE_EQ(s.Percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(s.Percentile(25), 2.5);
  EXPECT_DOUBLE_EQ(s.Percentile(90), 9.0);
}

TEST(SamplesTest, PercentileClampsArgument) {
  Samples s({1, 2, 3});
  EXPECT_EQ(s.Percentile(-10), 1);
  EXPECT_EQ(s.Percentile(200), 3);
}

TEST(SamplesTest, AddInvalidatesSortCache) {
  Samples s({2, 4});
  EXPECT_EQ(s.Median(), 3);
  s.Add(100);
  EXPECT_EQ(s.Max(), 100);
  EXPECT_EQ(s.Median(), 4);
}

TEST(SamplesTest, ClearResets) {
  Samples s({1, 2});
  s.Clear();
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.Count(), 0u);
}

TEST(SummaryLineTest, ContainsKeyNumbers) {
  Samples s({1, 2, 3, 4, 5});
  const auto line = SummaryLine(s, "s");
  EXPECT_NE(line.find("1.0s"), std::string::npos);
  EXPECT_NE(line.find("3.0s"), std::string::npos);
  EXPECT_NE(line.find("5.0s"), std::string::npos);
}

TEST(SummaryLineTest, HandlesEmpty) {
  Samples s;
  EXPECT_EQ(SummaryLine(s, "s"), "(no samples)");
}

}  // namespace
}  // namespace cnv
