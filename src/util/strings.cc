#include "util/strings.h"

#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "util/time.h"

namespace cnv {

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (n < 0) {
    va_end(args2);
    throw std::runtime_error("Format: encoding error");
  }
  std::string out(static_cast<std::size_t>(n), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return out;
}

// Defined here (declared in time.h) to keep util a single small library.
void AppendClock(std::string& out, SimTime t) {
  const std::int64_t total_ms = t / kMillisecond;
  const std::int64_t ms = total_ms % 1000;
  const std::int64_t total_s = total_ms / 1000;
  const std::int64_t s = total_s % 60;
  const std::int64_t m = (total_s / 60) % 60;
  const std::int64_t h = total_s / 3600;
  if (t < 0) {
    // printf renders negative fields with a sign; keep its exact bytes.
    out += Format("%02lld:%02lld:%02lld.%03lld", static_cast<long long>(h),
                  static_cast<long long>(m), static_cast<long long>(s),
                  static_cast<long long>(ms));
    return;
  }
  // Written right to left: ".mmm", ":ss", ":mm", then the hours, which
  // take at least two digits and as many more as they need.
  char buf[32];
  char* p = buf + sizeof buf;
  const auto put = [&p](std::int64_t v, int width) {
    for (int i = 0; i < width || v > 0; ++i) {
      *--p = static_cast<char>('0' + v % 10);
      v /= 10;
    }
  };
  put(ms, 3);
  *--p = '.';
  put(s, 2);
  *--p = ':';
  put(m, 2);
  *--p = ':';
  put(h, 2);
  out.append(p, buf + sizeof buf);
}

std::string FormatClock(SimTime t) {
  std::string out;
  AppendClock(out, t);
  return out;
}

std::string FormatDuration(SimDuration d) {
  if (d < kMillisecond) {
    return Format("%lldus", static_cast<long long>(d));
  }
  if (d < kSecond) {
    return Format("%lldms", static_cast<long long>(d / kMillisecond));
  }
  return Format("%.2fs", ToSeconds(d));
}

}  // namespace cnv
