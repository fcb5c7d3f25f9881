// Streaming-boundary fuzz: a randomized log (valid records, garbage lines,
// blank lines, CRLF endings, embedded brackets) is split at random chunk
// sizes and fed through the incremental StreamParser; the record stream
// must match a whole-buffer ParseLog record for record, at every chunking.
// Runs under ASan in CI via the `fuzz` label.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rtv/stream.h"
#include "trace/qxdm.h"
#include "util/rng.h"

namespace cnv::rtv {
namespace {

std::string RandomLine(Rng& rng) {
  switch (rng.UniformInt(0, 5)) {
    case 0:
      return "";  // blank
    case 1: {
      // Garbage of random printable bytes (may contain brackets/colons).
      std::string s;
      const int len = rng.UniformInt(0, 40);
      for (int i = 0; i < len; ++i) {
        s += static_cast<char>(rng.UniformInt(32, 126));
      }
      return s;
    }
    case 2:
      return "00:0x:bad [MSG] [4G] [EMM] malformed timestamp";
    default: {
      // A valid record with randomized fields.
      const char* types[] = {"STATE", "MSG", "EVENT", "FAULT", "RECOV"};
      const char* systems[] = {"3G", "4G", "none"};
      const char* modules[] = {"EMM", "MM", "GMM", "SM", "CM/CC", "3G-RRC"};
      std::string desc = "fuzz record " + std::to_string(rng.UniformInt(0, 999));
      if (rng.UniformInt(0, 3) == 0) desc += " [with] brackets]";
      return std::to_string(rng.UniformInt(0, 23)) + ":" +
             (rng.UniformInt(0, 1) ? "05" : "59") + ":" +
             (rng.UniformInt(0, 1) ? "00" : "42") + "." +
             std::to_string(rng.UniformInt(100, 999)) + " [" +
             types[rng.UniformInt(0, 4)] + "] [" +
             systems[rng.UniformInt(0, 2)] + "] [" +
             modules[rng.UniformInt(0, 5)] + "] " + desc;
    }
  }
}

std::string RandomLog(Rng& rng) {
  std::string log;
  const int lines = rng.UniformInt(0, 60);
  for (int i = 0; i < lines; ++i) {
    log += RandomLine(rng);
    log += rng.UniformInt(0, 9) == 0 ? "\r\n" : "\n";
  }
  if (rng.UniformInt(0, 2) == 0) log += RandomLine(rng);  // no trailing \n
  return log;
}

TEST(StreamParserFuzzTest, RandomChunkingsMatchWholeBufferParse) {
  Rng rng(20260808);
  for (int round = 0; round < 300; ++round) {
    const std::string log = RandomLog(rng);
    const auto want = trace::ParseLog(log);

    StreamParser parser;
    std::vector<trace::TraceRecord> got;
    const auto sink = [&](const trace::RecordView& r, std::uint64_t ordinal) {
      ASSERT_EQ(ordinal, got.size());
      got.push_back(r.ToRecord());
    };
    std::size_t off = 0;
    while (off < log.size()) {
      const auto chunk = static_cast<std::size_t>(
          rng.UniformInt(1, 1 + static_cast<int>(log.size() / 4)));
      parser.Feed(std::string_view(log).substr(off, chunk), sink);
      off += chunk;
    }
    parser.Finish(sink);

    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(trace::FormatRecord(got[i]), trace::FormatRecord(want[i]))
          << "round " << round << " record " << i;
    }
  }
}

TEST(StreamParserFuzzTest, OneByteChunksOnRandomLogs) {
  Rng rng(77);
  for (int round = 0; round < 40; ++round) {
    const std::string log = RandomLog(rng);
    const auto want = trace::ParseLog(log);
    StreamParser parser;
    std::vector<trace::TraceRecord> got;
    const auto sink = [&](const trace::RecordView& r, std::uint64_t) {
      got.push_back(r.ToRecord());
    };
    for (std::size_t i = 0; i < log.size(); ++i) {
      parser.Feed(std::string_view(log).substr(i, 1), sink);
    }
    parser.Finish(sink);
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(trace::FormatRecord(got[i]), trace::FormatRecord(want[i]));
    }
  }
}

TEST(StreamParserFuzzTest, HostileUnterminatedStreamStaysBounded) {
  Rng rng(404);
  StreamParser parser(/*max_line_bytes=*/256);
  const auto sink = [&](const trace::RecordView&, std::uint64_t) {};
  // Megabytes of newline-free noise must be discarded at the cap, not
  // buffered.
  std::string blob(1024, 'x');
  for (int i = 0; i < 2048; ++i) parser.Feed(blob, sink);
  parser.Finish(sink);
  EXPECT_EQ(parser.stats().records, 0u);
  EXPECT_EQ(parser.stats().overlong, 1u);
  EXPECT_EQ(parser.stats().bytes, blob.size() * 2048);
}

}  // namespace
}  // namespace cnv::rtv
