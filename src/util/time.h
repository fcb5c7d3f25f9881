// Simulated-time types shared by the simulator, the protocol stack and the
// experiment harnesses. Simulated time is an integral count of microseconds
// so that event ordering is exact and runs are reproducible.
#pragma once

#include <cstdint>
#include <string>

namespace cnv {

// Microseconds since the start of a simulation run.
using SimTime = std::int64_t;

// Durations share the representation of absolute times.
using SimDuration = std::int64_t;

constexpr SimDuration kMicrosecond = 1;
constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
constexpr SimDuration kSecond = 1000 * kMillisecond;
constexpr SimDuration kMinute = 60 * kSecond;
constexpr SimDuration kHour = 60 * kMinute;

constexpr SimDuration Millis(std::int64_t n) { return n * kMillisecond; }
constexpr SimDuration Seconds(std::int64_t n) { return n * kSecond; }
constexpr SimDuration Minutes(std::int64_t n) { return n * kMinute; }

// Converts a duration to fractional seconds, e.g. for reporting.
constexpr double ToSeconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

constexpr SimDuration FromSeconds(double s) {
  return static_cast<SimDuration>(s * static_cast<double>(kSecond));
}

// Formats an absolute simulated time as "hh:mm:ss.mmm", the timestamp format
// used by the paper's modem trace items (§3.3). Hours take two digits or
// more; the bytes are printf's "%02lld:%02lld:%02lld.%03lld".
std::string FormatClock(SimTime t);

// FormatClock appended to `out`, without a temporary.
void AppendClock(std::string& out, SimTime t);

// Formats a duration compactly, e.g. "2.40s" or "350ms".
std::string FormatDuration(SimDuration d);

}  // namespace cnv
