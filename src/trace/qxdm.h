// Text serialization of trace records in the modem-log style of §3.3:
//
//   12:01:05.250 [MSG] [3G] [MM] Location Updating Request sent
//
// The parser round-trips the formatter's output, so captured logs can be
// saved and re-analyzed offline like real QXDM exports. Timestamps are
// millisecond-granular (the paper's hh:mm:ss.ms format), so parsing a
// formatted log truncates sub-millisecond detail.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/record.h"

namespace cnv::trace {

// Appends one formatted line (no trailing newline) to `out`: the one
// formatter, which writes the clock digits itself and builds no temporary
// strings. FormatRecord and FormatLog wrap it.
void AppendRecord(std::string& out, const TraceRecord& r);
std::string FormatRecord(const TraceRecord& r);
std::string FormatLog(const std::vector<TraceRecord>& records);

// One parsed line whose module and description are views into the line
// itself: what the streaming gateway abstracts without copying a string.
// Valid only as long as the line's bytes are.
struct RecordView {
  SimTime time = 0;
  TraceType type = TraceType::kEvent;
  nas::System system = nas::System::kNone;
  std::string_view module;
  std::string_view description;  // trimmed of surrounding whitespace

  TraceRecord ToRecord() const;
};

// Parses one formatted line; std::nullopt on malformed input. Lines in the
// canonical FormatRecord shape take a fast path (the streaming gateway
// parses millions of records per second through this); anything else falls
// back to the permissive scanner, which accepts what
// sscanf("%d:%d:%d.%d") plus three "[field]"s would. Neither path copies.
std::optional<RecordView> ParseRecordView(std::string_view line);

// ParseRecordView with the strings copied out.
std::optional<TraceRecord> ParseRecord(std::string_view line);

// Parses a whole log, skipping blank and malformed lines.
std::vector<TraceRecord> ParseLog(const std::string& text);

// What ParseLog silently skips, made visible: line counts plus the
// 1-based numbers of the malformed (non-blank, unparseable) lines.
struct ParseLogStats {
  std::size_t lines = 0;    // total lines seen (split on '\n')
  std::size_t parsed = 0;   // lines that yielded a record
  std::size_t blank = 0;    // whitespace-only lines (skipped, not an error)
  std::size_t skipped = 0;  // malformed lines (skipped with a count)
  // 1-based line numbers of the skipped lines, capped at kMaxSkippedLines
  // so a corrupt multi-gigabyte capture cannot balloon the report.
  std::vector<std::size_t> skipped_lines;
  static constexpr std::size_t kMaxSkippedLines = 64;
};

// ParseLog with malformed-line accounting: same records, same order, but
// `stats` (optional) reports exactly which lines were dropped.
std::vector<TraceRecord> ParseLogStrict(const std::string& text,
                                        ParseLogStats* stats);

}  // namespace cnv::trace
