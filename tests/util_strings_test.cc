#include "util/strings.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/time.h"

namespace cnv {
namespace {

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(TrimView("  hi \t\n"), "hi");
  EXPECT_EQ(TrimView(""), "");
  EXPECT_EQ(TrimView("   "), "");
  EXPECT_EQ(TrimView("a b"), "a b");
}

// The program never calls setlocale, so the C locale's isspace is the
// byte set TrimView always used; IsAsciiSpace must match it on every byte.
TEST(StringsTest, IsAsciiSpaceMatchesTheCLocale) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    EXPECT_EQ(IsAsciiSpace(c), std::isspace(b) != 0) << "byte " << b;
  }
  EXPECT_EQ(TrimView("\v\f\r x \x85"), "x \x85");  // NEL is not ASCII
}

TEST(StringsTest, FormatWorksLikePrintf) {
  EXPECT_EQ(Format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(Format("%.2f", 1.005), "1.00");  // printf rounding semantics
}

TEST(TimeFormatTest, FormatClockMatchesPaperTraceFormat) {
  EXPECT_EQ(FormatClock(0), "00:00:00.000");
  EXPECT_EQ(FormatClock(Millis(1234)), "00:00:01.234");
  EXPECT_EQ(FormatClock(kHour + Minutes(2) + Seconds(3) + Millis(45)),
            "01:02:03.045");
}

// The hand-written digits must reproduce printf's bytes exactly, including
// three- and more-digit hours, sub-millisecond truncation and negatives.
TEST(TimeFormatTest, AppendClockMatchesPrintfEverywhere) {
  const auto printf_clock = [](SimTime t) {
    const long long total_ms = t / kMillisecond;
    const long long total_s = total_ms / 1000;
    return Format("%02lld:%02lld:%02lld.%03lld", total_s / 3600,
                  (total_s / 60) % 60, total_s % 60, total_ms % 1000);
  };
  std::vector<SimTime> times = {0,
                                1,
                                Millis(1) - 1,
                                Millis(999),
                                Seconds(59) + Millis(999),
                                kHour - 1,
                                99 * kHour + Minutes(59) + Seconds(59),
                                100 * kHour,
                                123456 * kHour + Millis(7),
                                -1,
                                -Millis(5),
                                -(kHour + Seconds(2)),
                                std::numeric_limits<SimTime>::max()};
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    times.push_back(static_cast<SimTime>(x >> (1 + i % 40)));
  }
  for (const SimTime t : times) {
    std::string appended = "prefix";
    AppendClock(appended, t);
    EXPECT_EQ(appended, "prefix" + printf_clock(t)) << t;
    EXPECT_EQ(FormatClock(t), printf_clock(t)) << t;
  }
}

TEST(TimeFormatTest, FormatDurationPicksUnit) {
  EXPECT_EQ(FormatDuration(500), "500us");
  EXPECT_EQ(FormatDuration(Millis(20)), "20ms");
  EXPECT_EQ(FormatDuration(Millis(2400)), "2.40s");
}

TEST(TimeTest, ConversionHelpers) {
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3)), 3.0);
  EXPECT_EQ(FromSeconds(1.5), Millis(1500));
  EXPECT_EQ(Seconds(1), 1000 * Millis(1));
}

}  // namespace
}  // namespace cnv
