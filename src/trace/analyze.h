// Trace analyzers: the measurements the paper derives from collected logs —
// call setup time (Figure 7), location/routing update durations (Figure 8),
// recovery time after a detach (Figure 4), stuck-in-3G duration (Table 6).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "trace/record.h"

namespace cnv::trace {

// Time of the first record at/after `from` whose description contains
// `needle`; std::nullopt if none.
std::optional<SimTime> TimeOfFirst(const std::vector<TraceRecord>& records,
                                   const std::string& needle,
                                   SimTime from = 0);

}  // namespace cnv::trace
