#include "util/log.h"

#include <atomic>
#include <iostream>

#include "util/time.h"

namespace cnv {
namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) { internal::g_log_level.store(level); }
LogLevel GetLogLevel() { return internal::g_log_level.load(); }

void LogLine(LogLevel level, const std::string& message) {
  if (!LogEnabled(level)) return;
  std::cerr << "[" << LevelName(level) << "] " << message << "\n";
}

}  // namespace cnv
