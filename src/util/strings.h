// Small string helpers used by trace formatting and report rendering.
#pragma once

#include <string>
#include <string_view>

namespace cnv {

// Strips ASCII whitespace from both ends.
std::string Trim(const std::string& s);

// Trim without the copy: the same bytes as Trim(s), as a view into `s`.
std::string_view TrimView(std::string_view s);

// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Left-pads / right-pads with spaces to a minimum width.
std::string PadLeft(const std::string& s, std::size_t width);
std::string PadRight(const std::string& s, std::size_t width);

}  // namespace cnv
