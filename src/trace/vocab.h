// The trace-event vocabulary: what a record's description means to the
// tools that read traces back. The stack (src/stack/ue.cc, network.cc) and
// the recovery monitor (src/fault/monitor.cc) emit free-text descriptions;
// one first-match table here maps (module, description) to the single row
// the record matches, and each reader takes its own column of that row:
//
//   conf  the model-vocabulary AbstractKind a refinement check compares;
//   obs   the procedure span the record starts, retries or closes;
//   rtv   the AbstractKind plus the facts the runtime monitors test.
//
// No other layer searches description text, so a new or renamed message
// is taught to every reader by one row.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace cnv::trace {

// Observable events in the screening models' vocabulary (src/model/vocab).
enum class AbstractKind : std::uint8_t {
  // Inter-system switches (S1/S3 models).
  kSwitch4gTo3g,
  kCsfbFallback,  // 4G->3G switch specifically for a CSFB call
  kSwitch3gTo4g,
  kCellReselection,
  kAwaitReselection,
  // Session / context management (S1 model).
  kPdpDeactivated,
  kUserDataOff,
  kUserDataOn,
  // Attach / TAU signaling (S2 model).
  kAttachRequest,
  kAttachAccept,
  kAttachComplete,
  kAttachReject,
  kTauRequest,
  kTauReject,
  kNetworkDetach,
  kServiceRecovered,
  // Data sessions (S3 model).
  kDataSessionStart,
  kDataSessionStop,
  // CS calls and MM coupling (S3/S4 models).
  kCallDialed,
  kCmServiceRequest,
  kCallDeferred,
  kCallEstablished,
  kCallEnded,
  kLocationUpdateStart,
  kMmWaitNetCmd,
  // Overload control (storm campaigns; no model counterpart yet, but the
  // differential harness keys on them when replaying congestion scenarios).
  kCongestionReject,    // UE-side reject with cause "congestion"
  kCongestionBackoff,   // UE arms T3346-class backoff
  kOverloadReject,      // core turns signalling away (reject or shed)
  kAdversarialRejected, // core screens out malformed/replayed NAS
  kStormBegins,         // a storm generator burst starts
  // Location-update coupling and shared-channel effects (S5/S6 signatures;
  // consumed by the online runtime-verification monitors in src/rtv).
  kLuDeferred,          // LU held back until the CSFB call completes
  kLuDisrupted,         // LU torn down mid-flight by an inter-system switch
  kChannelDegraded,     // 64QAM disabled while a CS voice call holds it
  kChannelRestored,     // 64QAM re-enabled after the voice call
};

std::string ToString(AbstractKind k);

// Control-plane procedures a span can cover. The Chrome-trace export uses
// kind + 1 as the thread id, so the order is part of that format.
enum class SpanKind : std::uint8_t {
  kAttach,          // EMM attach (4G)
  kGprsAttach,      // GMM attach (3G PS)
  kLocationUpdate,  // MM LAU (3G CS)
  kRoutingUpdate,   // GMM RAU (3G PS)
  kTrackingUpdate,  // EMM TAU (4G)
  kPdpActivation,   // SM PDP context activation (3G PS)
  kCall,            // CM/CC call setup: dial -> established (CSFB or VoLTE)
  kOutage,          // RecoveryMonitor outage window per property
};

std::string ToString(SpanKind k);

// What a record does to the span of its procedure.
enum class SpanRole : std::uint8_t {
  kNone,
  kStart,    // opens a span (a second start supersedes the open one)
  kRetry,    // a retransmission inside the open span
  kSuccess,  // closes the open span as completed
  kFailure,  // closes the open span as failed
};

// Facts of a record the runtime monitors test beyond its abstract kind,
// one bit each.
enum EventFact : std::uint8_t {
  kNoEpsBearer = 1 << 0,           // TAU Reject "no EPS bearer context ..."
  kImplicitlyDetached = 1 << 1,    // TAU Reject "implicitly detached"
  kTauRejectDetach = 1 << 2,       // detach delivered by a TAU Reject
  kNetworkDetachRequest = 1 << 3,  // detach delivered by a Detach Request
  kCmLayerDial = 1 << 4,           // dial at CM/CC, not an EMM CSFB request
  kPowerOn = 1 << 5,               // the device powers on: session boundary
};

// The bit of one procedure in EventRow::spans.
constexpr std::uint8_t SpanBit(SpanKind k) {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(k));
}

// One row of the vocabulary: a record whose module is one of `modules` and
// whose description contains `needle` means the rest of the row.
struct EventRow {
  std::array<std::string_view, 3> modules;  // unused slots are empty
  std::string_view needle;
  std::optional<AbstractKind> kind;  // nullopt: no model counterpart
  std::uint8_t spans = 0;            // SpanBit per procedure of the role
  SpanRole role = SpanRole::kNone;
  std::uint8_t facts = 0;  // EventFact bits
  // The emitter that produces this row's records, named only on rows the
  // vocabulary test corpus (goldens + seed-1 chaos grid) never reaches.
  std::string_view emitter = {};
};

// The first row (in table order) whose module set holds `module` and whose
// needle occurs in `description`; nullptr when no row does. Dispatches on
// the module first, so a record of an unmapped module (RRC churn, ESM, ...)
// costs one lookup rather than a table scan.
const EventRow* Classify(std::string_view module, std::string_view description);

// The whole table in match order.
std::span<const EventRow> EventRows();

}  // namespace cnv::trace
