#include "trace/collector.h"

#include "trace/qxdm.h"
#include "util/log.h"

namespace cnv::trace {

std::string ToString(TraceType t) { return std::string(TypeName(t)); }

std::string_view TypeName(TraceType t) {
  switch (t) {
    case TraceType::kState:
      return "STATE";
    case TraceType::kMsg:
      return "MSG";
    case TraceType::kEvent:
      return "EVENT";
    case TraceType::kFault:
      return "FAULT";
    case TraceType::kRecovery:
      return "RECOV";
  }
  return "?";
}

void Collector::Add(TraceType type, nas::System system, std::string module,
                    std::string description) {
  records_.push_back(TraceRecord{sim_.now(), type, system, std::move(module),
                                 std::move(description)});
  const TraceRecord& r = records_.back();
  CNV_LOG_DEBUG << FormatRecord(r);
  if (tap_) tap_(r);
}

}  // namespace cnv::trace
