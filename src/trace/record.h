// Modem-style protocol trace records. The paper's validation phase collects
// five fields per item from the phone's diagnostic mode (§3.3): timestamp
// (hh:mm:ss.ms), trace type, network system, generating module, and a
// description. TraceRecord reproduces exactly those fields.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "nas/ids.h"
#include "util/time.h"

namespace cnv::trace {

enum class TraceType : std::uint8_t {
  kState,     // protocol state change
  kMsg,       // signaling message sent/received
  kEvent,     // local event (timer expiry, user action, measurement)
  kFault,     // injected fault (chaos campaigns: link/element/timer faults)
  kRecovery,  // monitored property transition (outage begins/ends)
};

std::string ToString(TraceType t);
// The same token as a view into static storage ("STATE", "MSG", ...).
std::string_view TypeName(TraceType t);

struct TraceRecord {
  SimTime time = 0;
  TraceType type = TraceType::kEvent;
  nas::System system = nas::System::kNone;
  std::string module;       // e.g. "MM", "CM/CC", "EMM", "3G-RRC"
  std::string description;  // e.g. "a call is established"

  bool operator==(const TraceRecord&) const = default;
};

}  // namespace cnv::trace
