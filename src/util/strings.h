// Small string helpers used by trace formatting and report rendering.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace cnv {

// The ASCII whitespace bytes: the C locale's isspace set (space, \t, \n,
// \v, \f, \r), without the locale table lookup.
constexpr bool IsAsciiSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

// Strips ASCII whitespace from both ends, as a view into `s`.
constexpr std::string_view TrimView(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && IsAsciiSpace(s[b])) ++b;
  while (e > b && IsAsciiSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace cnv
