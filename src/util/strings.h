// Small string helpers used by trace formatting and report rendering.
#pragma once

#include <string>
#include <string_view>

namespace cnv {

// Strips ASCII whitespace from both ends, as a view into `s`.
std::string_view TrimView(std::string_view s);

// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace cnv
