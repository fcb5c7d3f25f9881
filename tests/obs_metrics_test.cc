#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <ios>
#include <stdexcept>
#include <string>

#include "obs/json.h"

namespace cnv::obs {
namespace {

TEST(RegistryTest, CountersAccumulateAndPersistByName) {
  Registry reg;
  reg.GetCounter("a.events").Increment();
  reg.GetCounter("a.events").Increment(4);
  EXPECT_EQ(reg.GetCounter("a.events").value(), 5u);
  EXPECT_TRUE(reg.Has("a.events"));
  EXPECT_FALSE(reg.Has("a.other"));
}

TEST(RegistryTest, GaugesSetAndAdd) {
  Registry reg;
  reg.GetGauge("q.depth").Set(12.5);
  reg.GetGauge("q.depth").Add(-2.5);
  EXPECT_DOUBLE_EQ(reg.GetGauge("q.depth").value(), 10.0);
}

TEST(HistogramTest, BucketsCountBoundariesInclusively) {
  Histogram h({1.0, 2.0, 5.0});
  h.Observe(0.5);  // <= 1
  h.Observe(1.0);  // <= 1 (boundary is inclusive)
  h.Observe(1.5);  // <= 2
  h.Observe(9.0);  // overflow
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 0u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_DOUBLE_EQ(h.Sum(), 12.0);
}

TEST(HistogramTest, PercentileUsesRawSamplesNotBucketBounds) {
  Histogram h({100.0});  // one coarse bucket: quantization would be useless
  for (int i = 1; i <= 100; ++i) h.Observe(i);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);
  // Linear interpolation over the raw series, exactly as util::Samples.
  EXPECT_NEAR(h.Percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(h.Percentile(95), 95.05, 1e-9);
}

TEST(HistogramTest, EmptyPercentileThrows) {
  Histogram h({1.0});
  EXPECT_THROW(h.Percentile(50), std::logic_error);
}

TEST(RegistryTest, JsonSnapshotIsNameSortedAndDeterministic) {
  const auto populate = [](Registry& reg) {
    // Registration order deliberately differs from name order.
    reg.GetGauge("z.gauge").Set(1.5);
    reg.GetCounter("b.count").Increment(2);
    reg.GetCounter("a.count").Increment(1);
    reg.GetHistogram("m.hist", {1.0, 10.0}).Observe(0.25);
    reg.GetHistogram("m.hist", {1.0, 10.0}).Observe(3.0);
  };
  Registry r1, r2;
  populate(r1);
  populate(r2);
  const std::string j1 = r1.ToJson(42);
  EXPECT_EQ(j1, r2.ToJson(42));

  EXPECT_NE(j1.find("\"sim_time_us\":42"), std::string::npos);
  // a.count must serialize before b.count regardless of registration order.
  EXPECT_LT(j1.find("\"a.count\":1"), j1.find("\"b.count\":2"));
  EXPECT_NE(j1.find("\"bucket_counts\":[1,1,0]"), std::string::npos);
}

TEST(JsonTest, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonTest, EveryControlCharacterEscapesToItsCodePoint) {
  // The full 0x00-0x1F range must come out as a valid JSON escape: the
  // named short forms where JSON has them, "\u00XX" with the *unsigned*
  // byte value everywhere else (a signed-char sign extension would print
  // "￿ff83"-style garbage).
  for (int c = 0x00; c < 0x20; ++c) {
    const std::string escaped = JsonEscape(std::string(1, static_cast<char>(c)));
    std::string want;
    switch (c) {
      case '\n': want = "\\n"; break;
      case '\r': want = "\\r"; break;
      case '\t': want = "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        want = buf;
      }
    }
    EXPECT_EQ(escaped, want) << "control char 0x" << std::hex << c;
  }
  // Bytes >= 0x80 (negative when char is signed) pass through untouched.
  const std::string high(1, static_cast<char>(0x83));
  EXPECT_EQ(JsonEscape(high), high);
}

TEST(JsonTest, NumberFormattingIsStable) {
  EXPECT_EQ(JsonNumber(3.0), "3");
  EXPECT_EQ(JsonNumber(-2.0), "-2");
  EXPECT_EQ(JsonNumber(0.25), "0.25");
  EXPECT_EQ(JsonNumber(1.0 / 3.0), "0.333333");
}

TEST(JsonTest, WriterNestsObjectsAndArrays) {
  JsonWriter w;
  w.BeginObject()
      .Key("xs")
      .BeginArray()
      .Int(1)
      .Int(2)
      .EndArray()
      .Key("ok")
      .Bool(true)
      .EndObject();
  EXPECT_EQ(w.Take(), "{\"xs\":[1,2],\"ok\":true}");
}

}  // namespace
}  // namespace cnv::obs
