#include "trace/analyze.h"

namespace cnv::trace {

std::optional<SimTime> TimeOfFirst(const std::vector<TraceRecord>& records,
                                   const std::string& needle, SimTime from) {
  for (const auto& r : records) {
    if (r.time >= from && r.description.find(needle) != std::string::npos) {
      return r.time;
    }
  }
  return std::nullopt;
}

}  // namespace cnv::trace
