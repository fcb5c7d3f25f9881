// Strict command-line parsing shared by the example drivers. A typo'd flag
// or a non-numeric `--jobs`/`--seed` value is a hard error — usage on
// stderr, exit status 2 — instead of being silently swallowed into a
// multi-hour campaign run with the wrong configuration.
//
// Usage pattern (flags first, then Finish() for the positionals):
//
//   args::ArgParser p(argc, argv, "usage: prog [seeds] [--jobs N]");
//   int jobs = 0;
//   p.IntValue("--jobs", &jobs, 0);
//   const bool robust = p.Flag("--robust");
//   const auto pos = p.Finish(/*max_positional=*/1);  // rejects unknown --x
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cnv::args {

// Strict integer parsing: the whole string must be a base-10 integer (an
// optional leading '-' for the signed form); "", "12x", "4.5" all fail.
bool ParseI64(const std::string& s, std::int64_t* out);
bool ParseU64(const std::string& s, std::uint64_t* out);

class ArgParser {
 public:
  // Copies argv[1..); `usage` is printed on every parse failure.
  ArgParser(int argc, char* const* argv, std::string usage);

  // True when `name` (e.g. "--robust") is present; consumes it.
  bool Flag(const std::string& name);

  // Valued flags: consume `name value` or `name=value`, returning true when
  // present. The value is parsed strictly; a missing or malformed value is
  // fatal. When given more than once (either spelling), the last occurrence
  // wins. `min_value` guards nonsensical counts (e.g. negative --jobs) and
  // `max_value` impossible ones (e.g. a --jobs no pool can start).
  bool IntValue(const std::string& name, int* out,
                int min_value = INT32_MIN, int max_value = INT32_MAX);
  bool U64Value(const std::string& name, std::uint64_t* out);
  bool I64Value(const std::string& name, std::int64_t* out,
                std::int64_t min_value = INT64_MIN);
  bool StrValue(const std::string& name, std::string* out);
  bool DoubleValue(const std::string& name, double* out);

  // Call after all flags have been extracted: any remaining token that
  // still looks like a flag is unknown and fatal, and more than
  // `max_positional` leftover tokens is fatal too. Returns the positionals
  // in order.
  std::vector<std::string> Finish(std::size_t max_positional);

  // Prints "<prog>: <message>" and the usage string to stderr, then exits
  // with status 2.
  [[noreturn]] void Fail(const std::string& message) const;

 private:
  // Finds the last occurrence of `name`; consumes every occurrence together
  // with its value and returns the last value. Returns false when absent.
  bool TakeValue(const std::string& name, std::string* value);

  std::string prog_;
  std::string usage_;
  std::vector<std::string> args_;
};

}  // namespace cnv::args
