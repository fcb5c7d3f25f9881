#include "util/args.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cnv::args {

bool ParseI64(const std::string& s, std::int64_t* out) {
  // strtoll skips leading whitespace; strict parsing must not.
  if (s.empty() || !(s[0] == '-' || (s[0] >= '0' && s[0] <= '9'))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = static_cast<std::int64_t>(v);
  return true;
}

bool ParseU64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

ArgParser::ArgParser(int argc, char* const* argv, std::string usage)
    : prog_(argc > 0 ? argv[0] : "prog"), usage_(std::move(usage)) {
  for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
}

void ArgParser::Fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n%s\n", prog_.c_str(), message.c_str(),
               usage_.c_str());
  std::exit(2);
}

bool ArgParser::Flag(const std::string& name) {
  bool present = false;
  for (std::size_t i = 0; i < args_.size();) {
    if (args_[i] == name) {
      args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i));
      present = true;
    } else {
      ++i;
    }
  }
  return present;
}

bool ArgParser::TakeValue(const std::string& name, std::string* value) {
  bool present = false;
  for (std::size_t i = 0; i < args_.size();) {
    if (args_[i] == name) {
      if (i + 1 >= args_.size()) Fail(name + " needs a value");
      *value = args_[i + 1];
      args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i),
                  args_.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      present = true;
    } else if (args_[i].size() > name.size() &&
               args_[i].compare(0, name.size(), name) == 0 &&
               args_[i][name.size()] == '=') {
      // "--flag=value" form; an empty value ("--flag=") is taken literally
      // and rejected by the strict value parsers just like a bad "--flag ''".
      *value = args_[i].substr(name.size() + 1);
      args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i));
      present = true;
    } else {
      ++i;
    }
  }
  return present;
}

bool ArgParser::IntValue(const std::string& name, int* out, int min_value,
                         int max_value) {
  std::int64_t v = 0;
  if (!I64Value(name, &v, min_value)) return false;
  if (v > INT32_MAX) Fail(name + ": value out of range");
  if (v > max_value) Fail(name + ": must be <= " + std::to_string(max_value));
  *out = static_cast<int>(v);
  return true;
}

bool ArgParser::I64Value(const std::string& name, std::int64_t* out,
                         std::int64_t min_value) {
  std::string raw;
  if (!TakeValue(name, &raw)) return false;
  std::int64_t v = 0;
  if (!ParseI64(raw, &v)) Fail(name + ": not an integer: '" + raw + "'");
  if (v < min_value) {
    Fail(name + ": must be >= " + std::to_string(min_value));
  }
  *out = v;
  return true;
}

bool ArgParser::DoubleValue(const std::string& name, double* out) {
  std::string raw;
  if (!TakeValue(name, &raw)) return false;
  // strtod skips leading whitespace; strict parsing must not.
  if (raw.empty() || !(raw[0] == '-' || raw[0] == '.' ||
                       (raw[0] >= '0' && raw[0] <= '9'))) {
    Fail(name + ": not a number: '" + raw + "'");
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(raw.c_str(), &end);
  if (errno != 0 || end != raw.c_str() + raw.size()) {
    Fail(name + ": not a number: '" + raw + "'");
  }
  *out = v;
  return true;
}

bool ArgParser::U64Value(const std::string& name, std::uint64_t* out) {
  std::string raw;
  if (!TakeValue(name, &raw)) return false;
  std::uint64_t v = 0;
  if (!ParseU64(raw, &v)) {
    Fail(name + ": not a non-negative integer: '" + raw + "'");
  }
  *out = v;
  return true;
}

bool ArgParser::StrValue(const std::string& name, std::string* out) {
  return TakeValue(name, out);
}

std::vector<std::string> ArgParser::Finish(std::size_t max_positional) {
  for (const auto& a : args_) {
    if (a.size() >= 2 && a[0] == '-' && a[1] == '-') {
      Fail("unknown flag '" + a + "'");
    }
  }
  if (args_.size() > max_positional) {
    Fail("too many arguments (got " + std::to_string(args_.size()) +
         ", expected at most " + std::to_string(max_positional) + ")");
  }
  return std::move(args_);
}

}  // namespace cnv::args
