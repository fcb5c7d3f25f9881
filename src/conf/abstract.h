// Trace abstraction layer: maps concrete modem-style trace records
// (src/trace) back into the screening models' vocabulary (src/model/vocab)
// so a simulator replay can be checked as a *refinement* of a model
// counterexample — the abstracted concrete trace must contain the model's
// observable events in the model's order.
//
// The mapping is deliberately table-driven (module + description
// substring -> abstract kind) and documented in DESIGN.md's "Conformance"
// section; it is the inverse of the abstraction the screening models apply
// to the stack.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/record.h"

namespace cnv::conf {

// Observable events in model vocabulary. Each corresponds to one or more
// concrete trace records; the mapping table lives in abstract.cc.
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
  kChannelDegraded,     // 64QAM disabled while a CS voice call holds the channel
  kChannelRestored,     // 64QAM re-enabled after the voice call
};

std::string ToString(AbstractKind k);

// One abstracted event: the model-vocabulary kind plus where it came from
// in the concrete record stream.
struct AbstractEvent {
  AbstractKind kind = AbstractKind::kAttachRequest;
  SimTime time = 0;
  std::size_t record_index = 0;
};

// Abstracts one record, given its module and description, through the
// kRules mapping table (first match wins, in table order); std::nullopt
// when the record has no model-vocabulary counterpart. This is the
// incremental entry point the runtime-verification gateway calls per
// record, on views into the raw line; internally it dispatches on the
// module first so unmapped modules (RRC churn, channel reconfigurations,
// ...) cost one lookup instead of a full table scan.
std::optional<AbstractKind> MatchAbstractKind(std::string_view module,
                                              std::string_view description);

// MatchAbstractKind(r.module, r.description).
std::optional<AbstractKind> MatchAbstractKind(const trace::TraceRecord& r);

// Abstracts a concrete record stream. Records with no model-vocabulary
// counterpart are dropped; the result preserves record order. Equivalent to
// MatchAbstractKind applied record by record.
std::vector<AbstractEvent> AbstractTrace(
    const std::vector<trace::TraceRecord>& records);

// Refinement check: `expected` (derived from the model counterexample) must
// appear as an in-order subsequence of the abstracted concrete trace.
struct RefinementCheck {
  bool refines = false;
  // Index into `expected` of the first event with no match (only meaningful
  // when !refines).
  std::size_t failed_index = 0;
  // The expected kinds that never matched, in order.
  std::vector<AbstractKind> missing;
};

RefinementCheck CheckRefinement(const std::vector<AbstractEvent>& concrete,
                                const std::vector<AbstractKind>& expected);

}  // namespace cnv::conf
