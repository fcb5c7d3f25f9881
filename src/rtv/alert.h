// Typed alerts emitted by the online property monitors: the moment a
// finding's signature completes in a live trace stream, the monitor emits
// one of these instead of waiting for the run to end (VeriFi-style runtime
// verification, inverted from the batch conformance harness).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/time.h"

namespace cnv::rtv {

enum class AlertKind : std::uint8_t {
  kS1,  // PDP context loss across a 4G->3G->4G round trip detaches the UE
  kS2,  // lost Attach Complete surfaces as a TAU Reject "implicitly detached"
  kS3,  // stranded in 3G after a CSFB call because data holds the channel
  kS4,  // outgoing call head-of-line blocked behind a location update
  kS5,  // CS voice call throttles an independent PS data session
  kS6,  // post-CSFB location update disrupted, network implicitly detaches
  kOverload,  // signalling storm / congestion-control activity
};
inline constexpr std::size_t kAlertKinds =
    static_cast<std::size_t>(AlertKind::kOverload) + 1;

// "S1".."S6" / "OVERLOAD".
std::string ToString(AlertKind k);

struct Alert {
  AlertKind kind = AlertKind::kS1;
  std::uint32_t stream = 0;       // ingest stream the signature completed on
  SimTime time = 0;               // timestamp of the completing record
  std::uint64_t record_index = 0; // per-stream ordinal of that record
  std::string detail;             // what the signature saw

  bool operator==(const Alert&) const = default;
};

// One deterministic line per alert:
//   00:00:11.338 [ALERT] [S1] [stream 0] <detail>
// Derived only from record content, so the alert log is byte-identical for
// a given byte stream regardless of ingest chunking or wall-clock timing.
std::string FormatAlert(const Alert& a);

std::string FormatAlertLog(const std::vector<Alert>& alerts);

}  // namespace cnv::rtv
