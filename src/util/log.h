// Minimal leveled logger. Experiments run quietly by default; tests and
// examples can raise the level to see protocol activity.
//
// The CNV_LOG_* macros test the level before anything else happens: a
// disabled line costs one atomic load, and neither the LogStream nor any
// `<<` operand (often a freshly formatted string) is evaluated. They expand
// to `if (disabled) {} else stream`, so a caller's own `else` after a macro
// statement still binds to the caller's `if`.
#pragma once

#include <atomic>
#include <sstream>
#include <string>

namespace cnv {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

namespace internal {
inline std::atomic<LogLevel> g_log_level{LogLevel::kWarn};
}  // namespace internal

// Process-wide minimum level; messages below it are discarded.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// True when a line at `level` would be emitted.
inline bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) >=
         static_cast<int>(internal::g_log_level.load());
}

// Emits one line to stderr if `level` passes the filter.
void LogLine(LogLevel level, const std::string& message);

namespace internal {

class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { LogLine(level_, os_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};

}  // namespace internal
}  // namespace cnv

#define CNV_LOG_AT(level)               \
  if (!::cnv::LogEnabled(level)) {      \
  } else                                \
    ::cnv::internal::LogStream(level)

#define CNV_LOG_DEBUG CNV_LOG_AT(::cnv::LogLevel::kDebug)
#define CNV_LOG_INFO CNV_LOG_AT(::cnv::LogLevel::kInfo)
#define CNV_LOG_WARN CNV_LOG_AT(::cnv::LogLevel::kWarn)
#define CNV_LOG_ERROR CNV_LOG_AT(::cnv::LogLevel::kError)
