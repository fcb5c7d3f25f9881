// In-memory trace collector attached to a simulated device (the stand-in
// for QXDM / XCAL-Mobile debugging mode).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "trace/record.h"

namespace cnv::trace {

class Collector {
 public:
  explicit Collector(const sim::Simulator& sim) : sim_(sim) {}
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Add(TraceType type, nas::System system, std::string module,
           std::string description);

  void State(nas::System system, std::string module, std::string description) {
    Add(TraceType::kState, system, std::move(module), std::move(description));
  }
  void Msg(nas::System system, std::string module, std::string description) {
    Add(TraceType::kMsg, system, std::move(module), std::move(description));
  }
  void Event(nas::System system, std::string module,
             std::string description) {
    Add(TraceType::kEvent, system, std::move(module), std::move(description));
  }
  void Fault(nas::System system, std::string module, std::string description) {
    Add(TraceType::kFault, system, std::move(module), std::move(description));
  }
  void Recovery(nas::System system, std::string module,
                std::string description) {
    Add(TraceType::kRecovery, system, std::move(module),
        std::move(description));
  }

  const std::vector<TraceRecord>& records() const { return records_; }
  void Clear() { records_.clear(); }

 private:
  const sim::Simulator& sim_;
  std::vector<TraceRecord> records_;
};

}  // namespace cnv::trace
