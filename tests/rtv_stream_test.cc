// Chunk-boundary behaviour of the incremental QXDM stream parser: whatever
// the chunking, the record stream must be identical to a whole-buffer
// ParseLog of the same bytes.
#include "rtv/stream.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/qxdm.h"
#include "trace/record.h"

namespace cnv::rtv {
namespace {

const char kLog[] =
    "00:00:01.000 [MSG] [4G] [EMM] Attach Request sent\n"
    "00:00:01.100 [STATE] [4G] [EMM] EMM-REGISTERED\n"
    "\n"
    "this line is garbage\n"
    "00:00:02.250 [EVENT] [3G] [UE] data session starts (5.00 Mbps demand)\n";

std::vector<trace::TraceRecord> Collect(StreamParser& p,
                                        const std::string& text,
                                        std::size_t chunk) {
  std::vector<trace::TraceRecord> out;
  const auto sink = [&](const trace::RecordView& r, std::uint64_t ordinal) {
    EXPECT_EQ(ordinal, out.size());
    out.push_back(r.ToRecord());
  };
  for (std::size_t off = 0; off < text.size(); off += chunk) {
    p.Feed(std::string_view(text).substr(off, chunk), sink);
  }
  p.Finish(sink);
  return out;
}

TEST(StreamParserTest, WholeBufferMatchesParseLog) {
  StreamParser p;
  const auto got = Collect(p, kLog, sizeof kLog);
  const auto want = trace::ParseLog(kLog);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(trace::FormatRecord(got[i]), trace::FormatRecord(want[i]));
  }
  EXPECT_EQ(p.stats().records, 3u);
  EXPECT_EQ(p.stats().blank, 1u);
  EXPECT_EQ(p.stats().skipped, 1u);
}

TEST(StreamParserTest, EveryChunkSizeGivesIdenticalRecords) {
  const std::string text = kLog;
  const auto want = trace::ParseLog(text);
  for (std::size_t chunk = 1; chunk <= text.size(); ++chunk) {
    StreamParser p;
    const auto got = Collect(p, text, chunk);
    ASSERT_EQ(got.size(), want.size()) << "chunk=" << chunk;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(trace::FormatRecord(got[i]), trace::FormatRecord(want[i]))
          << "chunk=" << chunk << " record=" << i;
    }
  }
}

TEST(StreamParserTest, FinishFlushesUnterminatedTrailingLine) {
  StreamParser p;
  std::vector<trace::TraceRecord> out;
  const auto sink = [&](const trace::RecordView& r, std::uint64_t) {
    out.push_back(r.ToRecord());
  };
  p.Feed("00:00:01.000 [MSG] [4G] [EMM] Attach Request sent", sink);
  EXPECT_TRUE(out.empty());  // no newline yet
  p.Finish(sink);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].description, "Attach Request sent");
  // Finish is idempotent once drained.
  p.Finish(sink);
  EXPECT_EQ(out.size(), 1u);
}

TEST(StreamParserTest, CrlfLineEndingsParse) {
  StreamParser p;
  std::vector<trace::TraceRecord> out;
  p.Feed("00:00:01.000 [MSG] [4G] [EMM] Attach Request sent\r\n",
         [&](const trace::RecordView& r, std::uint64_t) {
           out.push_back(r.ToRecord());
         });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].description, "Attach Request sent");
}

TEST(StreamParserTest, OverlongLineIsCountedAndDiscarded) {
  StreamParser p(/*max_line_bytes=*/32);
  std::vector<trace::TraceRecord> out;
  const auto sink = [&](const trace::RecordView& r, std::uint64_t) {
    out.push_back(r.ToRecord());
  };
  // One pseudo-line far beyond the cap, fed in small pieces, then a valid
  // record: the parser must bound its memory, count the discard and keep
  // parsing.
  for (int i = 0; i < 100; ++i) p.Feed("xxxxxxxxxx", sink);
  p.Feed("\n00:00:01.000 [MSG] [4G] [EMM] Attach Request sent\n", sink);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(p.stats().overlong, 1u);
  EXPECT_EQ(p.stats().records, 1u);
}

TEST(StreamParserTest, OverlongTrailingLineCountedOnFinish) {
  StreamParser p(/*max_line_bytes=*/8);
  int records = 0;
  const auto sink = [&](const trace::RecordView&, std::uint64_t) {
    ++records;
  };
  p.Feed("this never ends and never has a newline", sink);
  p.Finish(sink);
  EXPECT_EQ(records, 0);
  EXPECT_EQ(p.stats().overlong, 1u);
}

TEST(StreamParserTest, StatsCountBytesAndLines) {
  StreamParser p;
  const std::string text = kLog;
  Collect(p, text, 7);
  EXPECT_EQ(p.stats().bytes, text.size());
  EXPECT_EQ(p.stats().lines, 5u);
}

}  // namespace
}  // namespace cnv::rtv
