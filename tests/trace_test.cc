#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "trace/analyze.h"
#include "trace_count.h"
#include "trace/collector.h"
#include "trace/qxdm.h"

namespace cnv::trace {
namespace {

TEST(CollectorTest, StampsRecordsWithSimulatedTime) {
  sim::Simulator sim;
  Collector c(sim);
  c.Msg(nas::System::k4G, "EMM", "Attach Request sent");
  sim.RunUntil(Millis(1234));
  c.State(nas::System::k4G, "EMM", "EMM-REGISTERED");
  ASSERT_EQ(c.records().size(), 2u);
  EXPECT_EQ(c.records()[0].time, 0);
  EXPECT_EQ(c.records()[1].time, Millis(1234));
  EXPECT_EQ(c.records()[0].type, TraceType::kMsg);
  EXPECT_EQ(c.records()[1].type, TraceType::kState);
}

TEST(CollectorTest, ClearEmptiesTheLog) {
  sim::Simulator sim;
  Collector c(sim);
  c.Event(nas::System::k3G, "MM", "x");
  c.Clear();
  EXPECT_TRUE(c.records().empty());
}

TEST(QxdmTest, FormatContainsAllFiveFields) {
  TraceRecord r{Millis(61'250), TraceType::kMsg, nas::System::k3G, "MM",
                "Location Updating Request sent"};
  const auto line = FormatRecord(r);
  EXPECT_EQ(line,
            "00:01:01.250 [MSG] [3G] [MM] Location Updating Request sent");
}

TEST(QxdmTest, ParseRoundTrip) {
  TraceRecord r{kHour + Minutes(2) + Seconds(3) + Millis(45), TraceType::kState,
                nas::System::k4G, "4G-RRC", "RRC CONNECTED -> IDLE"};
  const auto parsed = ParseRecord(FormatRecord(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, r);
}

TEST(QxdmTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(ParseRecord("").has_value());
  EXPECT_FALSE(ParseRecord("garbage").has_value());
  EXPECT_FALSE(ParseRecord("12:00:00.000 missing brackets").has_value());
  EXPECT_FALSE(ParseRecord("12:00:00.000 [BOGUS] [3G] [MM] x").has_value());
  EXPECT_FALSE(ParseRecord("12:00:00.000 [MSG] [5G] [MM] x").has_value());
  EXPECT_FALSE(ParseRecord("12:99:00.000 [MSG] [3G] [MM] x").has_value());
}

TEST(QxdmTest, FastAndPermissivePathsAgree) {
  // Non-canonical shapes sscanf tolerates must still parse — the fast path
  // declines them and the permissive scanner produces the same record a
  // canonical spelling would.
  const auto canonical =
      ParseRecord("00:01:01.250 [MSG] [3G] [MM] Location Updating Request");
  ASSERT_TRUE(canonical.has_value());
  for (const char* variant : {
           "0:01:01.250 [MSG] [3G] [MM] Location Updating Request",
           "00:01:01.250  [MSG]  [3G]  [MM]  Location Updating Request",
           "00:01:01.250 [MSG] [3G] [MM]   Location Updating Request  ",
       }) {
    const auto parsed = ParseRecord(variant);
    ASSERT_TRUE(parsed.has_value()) << variant;
    EXPECT_EQ(*parsed, *canonical) << variant;
  }
  // Descriptions may contain brackets; everything after the third field
  // belongs to the description on both paths.
  const auto bracketed =
      ParseRecord("00:00:01.000 [EVENT] [4G] [STORM] begins [x] (n=3)");
  ASSERT_TRUE(bracketed.has_value());
  EXPECT_EQ(bracketed->description, "begins [x] (n=3)");
}

TEST(QxdmTest, ParseLogStrictReportsSkippedLineNumbers) {
  const std::string text =
      "00:00:01.000 [MSG] [4G] [EMM] Attach Request sent\n"
      "not a record\n"
      "\n"
      "00:00:02.000 [MSG] [4G] [EMM] Attach Accept received\n"
      "also garbage\n";
  ParseLogStats stats;
  const auto records = ParseLogStrict(text, &stats);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(stats.lines, 5u);
  EXPECT_EQ(stats.parsed, 2u);
  EXPECT_EQ(stats.blank, 1u);
  EXPECT_EQ(stats.skipped, 2u);
  EXPECT_EQ(stats.skipped_lines, (std::vector<std::size_t>{2, 5}));
}

TEST(QxdmTest, ParseLogStrictMatchesParseLog) {
  const std::string text =
      "junk\n00:00:01.000 [MSG] [4G] [EMM] Attach Request sent\n\nmore junk";
  ParseLogStats stats;
  EXPECT_EQ(ParseLogStrict(text, &stats), ParseLog(text));
  // The trailing '\n'-less segment is a line; a trailing '\n' is not.
  EXPECT_EQ(stats.lines, 4u);
  ParseLogStats with_newline;
  ParseLogStrict(text + "\n", &with_newline);
  EXPECT_EQ(with_newline.lines, 4u);
  EXPECT_EQ(with_newline.blank, stats.blank);
}

TEST(QxdmTest, ParseLogStrictPinsStatsOnAMessyLog) {
  const std::string text =
      "00:00:01.000 [MSG] [4G] [EMM] Attach Request sent\r\n"  // 1 CRLF
      "\n"                                                     // 2 blank
      " \t \r\n"                                              // 3 blank
      "00:00:02.000 [MSG] [4G] [EMM]\n"                        // 4 empty desc
      "garbage\r\n"                                            // 5 skipped
      "12:99:00.000 [MSG] [3G] [MM] x\n"                       // 6 skipped
      " 1:2:3.4 [EVENT] [3G] [UE] permissive\n"                // 7
      "00:00:03.000 [MSG] [4G] [EMM] Attach Accept received";  // 8 no '\n'
  ParseLogStats stats;
  const auto records = ParseLogStrict(text, &stats);
  EXPECT_EQ(stats.lines, 8u);
  EXPECT_EQ(stats.parsed, 4u);
  EXPECT_EQ(stats.blank, 2u);
  EXPECT_EQ(stats.skipped, 2u);
  EXPECT_EQ(stats.skipped_lines, (std::vector<std::size_t>{5, 6}));
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].description, "Attach Request sent");  // '\r' trimmed
  EXPECT_EQ(records[1].description, "");
  EXPECT_EQ(records[2].time, kHour + Minutes(2) + Seconds(3) + Millis(4));
  EXPECT_EQ(records[2].description, "permissive");
  EXPECT_EQ(records[3].description, "Attach Accept received");
  EXPECT_EQ(records, ParseLog(text));
}

TEST(QxdmTest, ParseRecordViewPointsIntoTheLine) {
  for (const std::string line :
       {"00:00:01.000 [MSG] [4G] [EMM] Attach Request sent ",
        " 0:0:1.0 [MSG]  [4G] [EMM] Attach Request sent"}) {
    const auto view = ParseRecordView(line);
    ASSERT_TRUE(view.has_value()) << line;
    EXPECT_EQ(view->module, "EMM");
    EXPECT_EQ(view->description, "Attach Request sent");
    EXPECT_EQ(view->module.data(), line.data() + line.find("EMM"));
    EXPECT_EQ(view->description.data(), line.data() + line.find("Attach"));
    EXPECT_EQ(view->ToRecord(), *ParseRecord(line));
  }
}

TEST(QxdmTest, ParseLogStrictCapsTheSkippedLineList) {
  std::string text;
  for (int i = 0; i < 100; ++i) text += "garbage line\n";
  ParseLogStats stats;
  ParseLogStrict(text, &stats);
  EXPECT_EQ(stats.skipped, 100u);
  EXPECT_EQ(stats.skipped_lines.size(), ParseLogStats::kMaxSkippedLines);
  EXPECT_EQ(stats.skipped_lines.front(), 1u);
  EXPECT_EQ(stats.skipped_lines.back(), ParseLogStats::kMaxSkippedLines);
}

TEST(QxdmTest, LogRoundTripSkipsBlankLines) {
  sim::Simulator sim;
  Collector c(sim);
  c.Msg(nas::System::k4G, "EMM", "Attach Request sent");
  c.Msg(nas::System::k4G, "EMM", "Attach Accept received");
  c.State(nas::System::k4G, "ESM", "EPS bearer activated");
  const auto text = FormatLog(c.records()) + "\n\n";
  const auto parsed = ParseLog(text);
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[2].module, "ESM");
  EXPECT_EQ(parsed, c.records());
}

std::vector<TraceRecord> SampleTrace() {
  return {
      {Seconds(1), TraceType::kMsg, nas::System::k3G, "MM",
       "Location Updating Request sent"},
      {Seconds(4), TraceType::kMsg, nas::System::k3G, "MM",
       "Location Updating Accept received"},
      {Seconds(5), TraceType::kMsg, nas::System::k3G, "CM/CC",
       "call dialed"},
      {Seconds(9), TraceType::kMsg, nas::System::k3G, "CM/CC",
       "call connected"},
      {Seconds(20), TraceType::kMsg, nas::System::k3G, "MM",
       "Location Updating Request sent"},
      {Seconds(22), TraceType::kMsg, nas::System::k3G, "MM",
       "Location Updating Accept received"},
  };
}

TEST(AnalyzeTest, TimeOfFirstHonorsFromBound) {
  const auto t = SampleTrace();
  EXPECT_EQ(TimeOfFirst(t, "Location Updating Request"), Seconds(1));
  EXPECT_EQ(TimeOfFirst(t, "Location Updating Request", Seconds(2)),
            Seconds(20));
  EXPECT_FALSE(TimeOfFirst(t, "not there").has_value());
}

TEST(AnalyzeTest, CountContaining) {
  const auto t = SampleTrace();
  EXPECT_EQ(CountContaining(t, "Location Updating"), 4u);
  EXPECT_EQ(CountContaining(t, "call"), 2u);
  EXPECT_EQ(CountContaining(t, "zzz"), 0u);
}

}  // namespace
}  // namespace cnv::trace
