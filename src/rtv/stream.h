// Incremental, chunk-boundary-safe QXDM log parser: the ingest boundary of
// the runtime-verification gateway. Bytes arrive in arbitrary chunks (pipe
// reads, socket segments); complete lines are parsed in place through
// trace::ParseRecordView and a partial trailing line is carried over to the
// next chunk, so the record stream is byte-for-byte identical to parsing
// the whole buffer at once — at any chunking, including one byte at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "trace/qxdm.h"
#include "trace/record.h"
#include "util/strings.h"

namespace cnv::rtv {

class StreamParser {
 public:
  struct Stats {
    std::uint64_t bytes = 0;     // bytes fed
    std::uint64_t lines = 0;     // complete lines seen (incl. blank)
    std::uint64_t records = 0;   // lines that parsed into a record
    std::uint64_t blank = 0;     // whitespace-only lines
    std::uint64_t skipped = 0;   // malformed lines (counted, then dropped)
    std::uint64_t overlong = 0;  // lines discarded at the length cap
  };

  // `max_line_bytes` bounds the carry-over buffer: a stream that never
  // produces a newline (a binary file, a hostile peer) costs at most this
  // much memory; the oversized pseudo-line is counted and discarded.
  explicit StreamParser(std::size_t max_line_bytes = 64 * 1024)
      : max_line_bytes_(max_line_bytes) {}

  // Feeds one chunk; calls sink(const trace::RecordView&, ordinal) for
  // every record that completes, where ordinal is the 0-based index of the
  // record within this stream (identical to its index in a whole-buffer
  // ParseLog). The view points into the chunk or the carry-over buffer and
  // is valid only during the call.
  template <typename Sink>
  void Feed(std::string_view chunk, Sink&& sink) {
    stats_.bytes += chunk.size();
    while (!chunk.empty()) {
      const auto nl = chunk.find('\n');
      if (nl == std::string_view::npos) {
        Carry(chunk);
        return;
      }
      if (pending_.empty() && !overflow_) {
        // Whole line inside this chunk: parse without copying.
        EmitLine(chunk.substr(0, nl), sink);
      } else {
        Carry(chunk.substr(0, nl));
        if (overflow_) {
          ++stats_.lines;
          ++stats_.overlong;
          overflow_ = false;
        } else {
          EmitLine(pending_, sink);
        }
        pending_.clear();
      }
      chunk.remove_prefix(nl + 1);
    }
  }

  // Flushes a trailing line that never got its newline (ParseLog parses the
  // final unterminated segment too). Idempotent once drained.
  template <typename Sink>
  void Finish(Sink&& sink) {
    if (overflow_) {
      ++stats_.lines;
      ++stats_.overlong;
      overflow_ = false;
    } else if (!pending_.empty()) {
      EmitLine(pending_, sink);
    }
    pending_.clear();
  }

  const Stats& stats() const { return stats_; }

 private:
  template <typename Sink>
  void EmitLine(std::string_view line, Sink&& sink) {
    ++stats_.lines;
    if (TrimView(line).empty()) {
      ++stats_.blank;
      return;
    }
    if (const auto view = trace::ParseRecordView(line)) {
      sink(*view, stats_.records);
      ++stats_.records;
    } else {
      ++stats_.skipped;
    }
  }

  void Carry(std::string_view piece) {
    if (overflow_) return;  // already discarding this pseudo-line
    if (pending_.size() + piece.size() > max_line_bytes_) {
      pending_.clear();
      overflow_ = true;
      return;
    }
    pending_.append(piece);
  }

  const std::size_t max_line_bytes_;
  std::string pending_;   // partial line carried across chunk boundaries
  bool overflow_ = false; // current line blew the cap; discard until '\n'
  Stats stats_;
};

}  // namespace cnv::rtv
