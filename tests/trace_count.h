// Assertion helper for the stack suites: counts trace records by a
// substring of their description.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "trace/record.h"

namespace cnv::trace {

// Number of records whose description contains `needle`.
inline std::size_t CountContaining(const std::vector<TraceRecord>& records,
                                   const std::string& needle) {
  std::size_t n = 0;
  for (const auto& r : records) {
    if (r.description.find(needle) != std::string::npos) ++n;
  }
  return n;
}

}  // namespace cnv::trace
