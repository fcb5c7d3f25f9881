#include "trace/qxdm.h"

#include <algorithm>
#include <climits>

#include "util/strings.h"

namespace cnv::trace {
namespace {

std::optional<TraceType> ParseType(std::string_view s) {
  if (s == "STATE") return TraceType::kState;
  if (s == "MSG") return TraceType::kMsg;
  if (s == "EVENT") return TraceType::kEvent;
  if (s == "FAULT") return TraceType::kFault;
  if (s == "RECOV") return TraceType::kRecovery;
  return std::nullopt;
}

std::optional<nas::System> ParseSystem(std::string_view s) {
  if (s == "3G") return nas::System::k3G;
  if (s == "4G") return nas::System::k4G;
  if (s == "none") return nas::System::kNone;
  return std::nullopt;
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool TakeLiteral(std::string_view& s, std::string_view lit) {
  if (s.substr(0, lit.size()) != lit) return false;
  s.remove_prefix(lit.size());
  return true;
}

// Builds the view once the clock and the three fields are known; nullopt
// when the type or system is not in the vocabulary. The description is
// everything after the module field, trimmed.
std::optional<RecordView> MakeView(int h, int m, int sec, int ms,
                                   std::string_view type_s,
                                   std::string_view sys_s,
                                   std::string_view module_s,
                                   std::string_view rest) {
  const auto type = ParseType(type_s);
  const auto sys = ParseSystem(sys_s);
  if (!type || !sys) return std::nullopt;
  const SimTime time =
      static_cast<SimTime>(h) * kHour + static_cast<SimTime>(m) * kMinute +
      static_cast<SimTime>(sec) * kSecond +
      static_cast<SimTime>(ms) * kMillisecond;
  return RecordView{time, *type, *sys, module_s, TrimView(rest)};
}

// --- fast path -------------------------------------------------------------
//
// The canonical FormatRecord grammar:
//
//   <h+>:<mm>:<ss>.<mmm> [<TYPE>] [<SYS>] [<MOD>] <description>
//
// Anything that deviates (leading whitespace, doubled separators, a '+'
// sign "%d" would tolerate, ...) returns nullopt here and is re-parsed by
// the permissive scanner, so the two-tier parser accepts exactly what the
// permissive grammar does and produces identical records.

bool TakeDigits(std::string_view& s, int min_digits, int max_digits,
                int* out) {
  int n = 0;
  int digits = 0;
  while (digits < max_digits && !s.empty() && IsDigit(s.front())) {
    n = n * 10 + (s.front() - '0');
    s.remove_prefix(1);
    ++digits;
  }
  if (digits < min_digits) return false;
  *out = n;
  return true;
}

// " [<field>]" where <field> runs to the first ']'.
bool TakeField(std::string_view& s, std::string_view* out) {
  if (!TakeLiteral(s, " [")) return false;
  const auto close = s.find(']');
  if (close == std::string_view::npos) return false;
  *out = s.substr(0, close);
  s.remove_prefix(close + 1);
  return true;
}

std::optional<RecordView> ParseFast(std::string_view s) {
  int h = 0, m = 0, sec = 0, ms = 0;
  // Hours may exceed two digits on long runs; minutes/seconds/millis are
  // fixed-width in the canonical format.
  if (!TakeDigits(s, 1, 9, &h)) return std::nullopt;
  if (!TakeLiteral(s, ":") || !TakeDigits(s, 2, 2, &m)) return std::nullopt;
  if (!TakeLiteral(s, ":") || !TakeDigits(s, 2, 2, &sec)) return std::nullopt;
  if (!TakeLiteral(s, ".") || !TakeDigits(s, 3, 3, &ms)) return std::nullopt;
  if (m > 59 || sec > 59) return std::nullopt;
  // The permissive scanner finds '[' anywhere; the fast path only claims
  // the canonical single-space separation, and within a field the scanner
  // would have stopped at the first ']' just like TakeField does. A '[' in
  // a *description* is fine — the description is everything that remains.
  std::string_view type_s, sys_s, module_s;
  if (!TakeField(s, &type_s) || !TakeField(s, &sys_s) ||
      !TakeField(s, &module_s)) {
    return std::nullopt;
  }
  return MakeView(h, m, sec, ms, type_s, sys_s, module_s, s);
}

// --- permissive path -------------------------------------------------------
//
//   sscanf(line, "%d:%d:%d.%d%n", ...) then three "[field]"s found
//   anywhere after the clock, then the (trimmed) description.

// One "%d" conversion: optional leading whitespace, an optional sign, at
// least one digit. The value is strtol's (saturating at the range of long)
// narrowed to int, which is what glibc stores.
bool ScanInt(std::string_view& s, int* out) {
  std::size_t i = 0;
  while (i < s.size() && IsAsciiSpace(s[i])) ++i;
  bool negative = false;
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) {
    negative = s[i] == '-';
    ++i;
  }
  const std::size_t first_digit = i;
  unsigned long magnitude = 0;
  bool saturated = false;
  for (; i < s.size() && IsDigit(s[i]); ++i) {
    const auto digit = static_cast<unsigned long>(s[i] - '0');
    if (magnitude > (ULONG_MAX - digit) / 10) saturated = true;
    if (!saturated) magnitude = magnitude * 10 + digit;
  }
  if (i == first_digit) return false;
  const unsigned long limit =
      negative ? static_cast<unsigned long>(LONG_MAX) + 1 : LONG_MAX;
  if (saturated || magnitude > limit) magnitude = limit;
  const long value = negative ? static_cast<long>(0UL - magnitude)
                              : static_cast<long>(magnitude);
  *out = static_cast<int>(value);
  s.remove_prefix(i);
  return true;
}

// The next "[field]" anywhere in `s`; consumes through its ']'.
bool TakeBracketedField(std::string_view& s, std::string_view* out) {
  const auto open = s.find('[');
  if (open == std::string_view::npos) return false;
  const auto close = s.find(']', open);
  if (close == std::string_view::npos) return false;
  *out = s.substr(open + 1, close - open - 1);
  s.remove_prefix(close + 1);
  return true;
}

std::optional<RecordView> ParsePermissive(std::string_view line) {
  // "%d" reads a C string, so an embedded NUL ends the clock.
  const std::string_view c_str = line.substr(0, line.find('\0'));
  std::string_view clock = c_str;
  int h = 0, m = 0, s = 0, ms = 0;
  if (!ScanInt(clock, &h) || !TakeLiteral(clock, ":") ||
      !ScanInt(clock, &m) || !TakeLiteral(clock, ":") ||
      !ScanInt(clock, &s) || !TakeLiteral(clock, ".") ||
      !ScanInt(clock, &ms)) {
    return std::nullopt;
  }
  if (m < 0 || m > 59 || s < 0 || s > 59 || ms < 0 || ms > 999 || h < 0) {
    return std::nullopt;
  }
  std::string_view rest = line.substr(c_str.size() - clock.size());
  std::string_view type_s, sys_s, module_s;
  if (!TakeBracketedField(rest, &type_s) ||
      !TakeBracketedField(rest, &sys_s) ||
      !TakeBracketedField(rest, &module_s)) {
    return std::nullopt;
  }
  return MakeView(h, m, s, ms, type_s, sys_s, module_s, rest);
}

}  // namespace

TraceRecord RecordView::ToRecord() const {
  TraceRecord r;
  r.time = time;
  r.type = type;
  r.system = system;
  r.module.assign(module);
  r.description.assign(description);
  return r;
}

void AppendRecord(std::string& out, const TraceRecord& r) {
  AppendClock(out, r.time);
  out += " [";
  out += TypeName(r.type);
  out += "] [";
  out += nas::SystemName(r.system);
  out += "] [";
  out += r.module;
  out += "] ";
  out += r.description;
}

std::string FormatRecord(const TraceRecord& r) {
  std::string out;
  AppendRecord(out, r);
  return out;
}

std::string FormatLog(const std::vector<TraceRecord>& records) {
  // Clock, three bracketed fields, separators and newline stay under this
  // per line; the one reservation makes the appends copy-only.
  constexpr std::size_t kFixedBytes = 48;
  std::size_t bytes = 0;
  for (const auto& r : records) {
    bytes += kFixedBytes + r.module.size() + r.description.size();
  }
  std::string out;
  out.reserve(bytes);
  for (const auto& r : records) {
    AppendRecord(out, r);
    out += '\n';
  }
  return out;
}

std::optional<RecordView> ParseRecordView(std::string_view line) {
  if (auto fast = ParseFast(line)) return fast;
  return ParsePermissive(line);
}

std::optional<TraceRecord> ParseRecord(std::string_view line) {
  if (const auto view = ParseRecordView(line)) return view->ToRecord();
  return std::nullopt;
}

std::vector<TraceRecord> ParseLog(const std::string& text) {
  return ParseLogStrict(text, nullptr);
}

std::vector<TraceRecord> ParseLogStrict(const std::string& text,
                                        ParseLogStats* stats) {
  std::vector<TraceRecord> out;
  out.reserve(static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n') + 1));
  std::string_view rest(text);
  std::size_t line_no = 0;
  // Lines split on '\n'; a final '\n' terminates the last line rather than
  // starting an empty one.
  while (!rest.empty()) {
    const auto nl = rest.find('\n');
    const std::string_view line = rest.substr(0, nl);
    rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
    ++line_no;
    if (stats) stats->lines = line_no;
    if (TrimView(line).empty()) {
      if (stats) ++stats->blank;
      continue;
    }
    if (const auto view = ParseRecordView(line)) {
      out.push_back(view->ToRecord());
      if (stats) ++stats->parsed;
    } else if (stats) {
      ++stats->skipped;
      if (stats->skipped_lines.size() < ParseLogStats::kMaxSkippedLines) {
        stats->skipped_lines.push_back(line_no);
      }
    }
  }
  return out;
}

}  // namespace cnv::trace
