#include "trace/vocab.h"

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

namespace cnv::trace {

namespace {

// Names indexed by enumerator value.
constexpr std::string_view kKindNames[] = {
    "switch-4g-to-3g", "csfb-fallback", "switch-3g-to-4g", "cell-reselection",
    "await-reselection", "pdp-deactivated", "user-data-off", "user-data-on",
    "attach-request", "attach-accept", "attach-complete", "attach-reject",
    "tau-request", "tau-reject", "network-detach", "service-recovered",
    "data-session-start", "data-session-stop", "call-dialed",
    "cm-service-request", "call-deferred", "call-established", "call-ended",
    "location-update-start", "mm-wait-net-cmd", "congestion-reject",
    "congestion-backoff", "overload-reject", "adversarial-rejected",
    "storm-begins", "lu-deferred", "lu-disrupted", "channel-degraded",
    "channel-restored",
};
static_assert(std::size(kKindNames) ==
              static_cast<std::size_t>(AbstractKind::kChannelRestored) + 1);
constexpr std::string_view kSpanNames[] = {
    "attach", "gprs_attach", "location_update", "routing_update",
    "tracking_update", "pdp_activation", "call", "outage",
};
static_assert(std::size(kSpanNames) ==
              static_cast<std::size_t>(SpanKind::kOutage) + 1);

using K = AbstractKind;
using R = SpanRole;
constexpr std::uint8_t kAttach = SpanBit(SpanKind::kAttach);
constexpr std::uint8_t kGprsAttach = SpanBit(SpanKind::kGprsAttach);
constexpr std::uint8_t kLu = SpanBit(SpanKind::kLocationUpdate);
constexpr std::uint8_t kRau = SpanBit(SpanKind::kRoutingUpdate);
constexpr std::uint8_t kTau = SpanBit(SpanKind::kTrackingUpdate);
constexpr std::uint8_t kPdp = SpanBit(SpanKind::kPdpActivation);
constexpr std::uint8_t kCall = SpanBit(SpanKind::kCall);
constexpr std::uint8_t kOutage = SpanBit(SpanKind::kOutage);
constexpr std::optional<AbstractKind> kNoKind;
constexpr std::array<std::string_view, 3> kCoreNas = {"EMM", "MM", "GMM"};

// The vocabulary (documented in DESIGN.md "Trace-event vocabulary").
// First match wins within a module, and the table keeps the match a record
// gets the most specific one: a row precedes every row of its module whose
// needle its own contains (the CSFB switch before the generic switch, a
// congestion or cause-specific reject before the generic reject, a
// path-specific detach before the generic detach). No emitted description
// holds two needles otherwise, as trace_vocab_test checks on its corpus, so
// the rest of the order is free and serves speed: per module, the kinds
// the stack emits most come first, then the core-NAS rows that EMM, MM
// and GMM share, then the rows with no kind (span markers and the
// monitors' session boundary), which add no failed search to a record that
// has a kind.
constexpr EventRow kRows[] = {
    {{"UE"}, "4G->3G switch (CSFB call)", K::kCsfbFallback},
    {{"UE"}, "4G->3G switch", K::kSwitch4gTo3g, 0, R::kNone, 0,
     "UeDevice::SwitchTo3g for mobility or load balancing"},
    {{"UE"}, "3G->4G switch", K::kSwitch3gTo4g},
    {{"UE"}, "data session starts", K::kDataSessionStart},
    {{"UE"}, "data session ends", K::kDataSessionStop, 0, R::kNone, 0,
     "UeDevice::StopDataSession"},
    {{"UE"}, "user disables mobile data", K::kUserDataOff, 0, R::kNone, 0,
     "UeDevice::EnableData(false)"},
    {{"UE"}, "user enables mobile data", K::kUserDataOn, 0, R::kNone, 0,
     "UeDevice::EnableData(true)"},
    {{"3G-RRC"}, "inter-system cell reselection to 4G", K::kCellReselection},
    {{"3G-RRC"}, "awaiting RRC IDLE for inter-system cell reselection",
     K::kAwaitReselection},
    {{"3G-RRC"}, "64QAM disabled during CS voice call", K::kChannelDegraded},
    {{"3G-RRC"}, "64QAM re-enabled after voice call", K::kChannelRestored},
    {{"SM"}, "PDP context deactivated", K::kPdpDeactivated},
    {{"SM"}, "Deactivate PDP Context Request sent", K::kPdpDeactivated, 0,
     R::kNone, 0, "UeDevice::EnableData(false) while in 3G"},
    {{"SM"}, "SM backoff armed", K::kCongestionBackoff, 0, R::kNone, 0,
     "UeDevice::OnDownlink3gPs when a congested SGSN rejects a PDP "
     "activation"},
    // Module "EMM" keeps these from matching the 3G "GPRS Attach ..."
    // records, which belong to GMM.
    {{"EMM"}, "Attach Request sent", K::kAttachRequest, kAttach, R::kStart},
    {{"EMM"}, "Attach Accept received", K::kAttachAccept, kAttach,
     R::kSuccess},
    {{"EMM"}, "Attach Complete sent", K::kAttachComplete},
    {{"EMM"}, "Attach Request retransmitted", K::kAttachRequest, kAttach,
     R::kRetry},
    // A congestion reject is a backoff order, not the S2-style detach
    // trigger the models reason about; it still fails its procedure.
    {{"EMM"}, "Attach Reject received (cause: congestion",
     K::kCongestionReject, kAttach, R::kFailure},
    {{"EMM"}, "Attach Reject received", K::kAttachReject, kAttach,
     R::kFailure, 0, "UeDevice::OnDownlink4g on a non-congestion reject"},
    {{"EMM"}, "Tracking Area Update Request sent", K::kTauRequest, kTau,
     R::kStart},
    {{"EMM"}, "Tracking Area Update Reject received (cause: congestion",
     K::kCongestionReject, kTau, R::kFailure, 0,
     "UeDevice::OnDownlink4g when a congested MME rejects a TAU"},
    {{"EMM"},
     "Tracking Area Update Reject received (cause: no EPS bearer context "
     "activated",
     K::kTauReject, kTau, R::kFailure, kNoEpsBearer},
    {{"EMM"}, "Tracking Area Update Reject received (cause: implicitly "
              "detached",
     K::kTauReject, kTau, R::kFailure, kImplicitlyDetached},
    {{"EMM"}, "Tracking Area Update Reject received", K::kTauReject, kTau,
     R::kFailure, 0, "UeDevice::OnDownlink4g on a reject with another cause"},
    {{"EMM"}, "detached by network via Tracking Area Update Reject",
     K::kNetworkDetach, 0, R::kNone, kTauRejectDetach},
    {{"EMM"}, "detached by network via network Detach Request",
     K::kNetworkDetach, 0, R::kNone, kNetworkDetachRequest},
    {{"EMM"}, "detached by network via", K::kNetworkDetach, 0, R::kNone, 0,
     "UeDevice::HandleDetach after an Attach Reject"},
    {{"EMM"}, "service recovered", K::kServiceRecovered},
    // A dial from 4G surfaces as the CSFB extended service request.
    {{"EMM"}, "Extended Service Request (CSFB) sent", K::kCallDialed, kCall,
     R::kStart},
    {{"CM/CC"}, "user dials an outgoing call", K::kCallDialed, kCall,
     R::kStart, kCmLayerDial},
    {{"CM/CC"}, "a call is established", K::kCallEstablished, kCall,
     R::kSuccess},
    {{"CM/CC"}, "Disconnect sent (call ends)", K::kCallEnded},
    {{"MM"}, "Location Updating Request sent", K::kLocationUpdateStart, kLu,
     R::kStart},
    {{"MM"}, "MM-WAIT-FOR-NET-CMD", K::kMmWaitNetCmd},
    {{"MM"}, "CM Service Request sent", K::kCmServiceRequest},
    {{"MM"}, "CM service request deferred", K::kCallDeferred},
    {{"MM"}, "location update deferred until the CSFB call completes",
     K::kLuDeferred},
    {{"MM"}, "location update disrupted by inter-system switch",
     K::kLuDisrupted},
    {{"MM"}, "Location Updating Reject received (cause: congestion",
     K::kCongestionReject, kLu, R::kFailure, 0,
     "UeDevice::OnDownlink3gCs when a congested MSC rejects an LU"},
    {{"MM"}, "CM Service Reject received (cause: congestion",
     K::kCongestionReject, kCall, R::kFailure, 0,
     "UeDevice::OnDownlink3gCs when a congested MSC rejects a call"},
    {{"STORM"}, "begins", K::kStormBegins},
    // Rows the three mobility-management modules share: UE-side congestion
    // handling, then the core's overload and adversarial screens.
    {kCoreNas, "Reject received (cause: congestion", K::kCongestionReject,
     0, R::kNone, 0,
     "UeDevice::OnDownlink3gPs when a congested SGSN rejects an attach or "
     "RAU"},
    {kCoreNas, "T3346 armed", K::kCongestionBackoff},
    {kCoreNas, "Overload reject:", K::kOverloadReject},
    {kCoreNas, "Overload shed:", K::kOverloadReject, 0, R::kNone, 0,
     "CoreElement::Overflow and Shed under the priority-shed policy"},
    {kCoreNas, "Rejected malformed", K::kAdversarialRejected},
    {kCoreNas, "Rejected truncated", K::kAdversarialRejected},
    {kCoreNas, "Rejected wrong protocol", K::kAdversarialRejected},
    {kCoreNas, "Dropped replayed", K::kAdversarialRejected},
    // No model counterpart: the monitors' session boundary and the span
    // markers.
    {{"UE"}, "device powers on", kNoKind, 0, R::kNone, kPowerOn},
    {{"EMM"}, "Tracking Area Update Accept received", kNoKind, kTau,
     R::kSuccess},
    {{"EMM"}, "TAU retransmitted", kNoKind, kTau, R::kRetry},
    {{"EMM"}, "VoLTE call setup", kNoKind, kCall, R::kStart, 0,
     "UeDevice::Dial on a VoLTE carrier"},
    {{"EMM"}, "VoLTE call established", kNoKind, kCall, R::kSuccess, 0,
     "UeDevice::Dial on a VoLTE carrier"},
    {{"GMM"}, "GPRS Attach Request sent", kNoKind, kGprsAttach, R::kStart},
    {{"GMM"}, "GPRS Attach Accept received", kNoKind, kGprsAttach,
     R::kSuccess},
    {{"GMM"}, "Routing Area Update Request sent", kNoKind, kRau, R::kStart},
    {{"GMM"}, "Routing Area Update Accept received", kNoKind, kRau,
     R::kSuccess},
    {{"GMM"}, "GPRS Attach Request retransmitted", kNoKind, kGprsAttach,
     R::kRetry, 0, "UeDevice::OnGmmTimeout with NAS retries on"},
    {{"GMM"}, "Routing Area Update Request retransmitted", kNoKind, kRau,
     R::kRetry, 0, "UeDevice::OnGmmTimeout with NAS retries on"},
    // Fails whichever of the two GMM procedures is open, GPRS attach first.
    {{"GMM"}, "GMM procedure abandoned", kNoKind, kGprsAttach | kRau,
     R::kFailure, 0, "UeDevice::OnGmmTimeout once NAS retries run out"},
    {{"MM"}, "Location Updating Accept received", kNoKind, kLu, R::kSuccess},
    {{"MM"}, "Location Updating Request retransmitted", kNoKind, kLu,
     R::kRetry, 0, "UeDevice::OnLuTimeout with NAS retries on"},
    {{"MM"}, "Location Updating Reject received", kNoKind, kLu, R::kFailure,
     0, "UeDevice::OnDownlink3gCs on a non-congestion reject"},
    {{"MM"}, "location update abandoned", kNoKind, kLu, R::kFailure, 0,
     "UeDevice::OnLuTimeout once NAS retries run out"},
    {{"MM"}, "CM Service Request re-requested", kNoKind, kCall, R::kRetry, 0,
     "UeDevice::OnCmTimeout with CM re-attempts on"},
    {{"MM"}, "CM Service Reject received", kNoKind, kCall, R::kFailure, 0,
     "UeDevice::OnDownlink3gCs on a non-congestion reject"},
    {{"MM"}, "CM service abandoned", kNoKind, kCall, R::kFailure, 0,
     "UeDevice::OnCmTimeout once CM re-attempts run out"},
    {{"SM"}, "Activate PDP Context Request sent", kNoKind, kPdp, R::kStart},
    {{"SM"}, "Activate PDP Context Request retransmitted", kNoKind, kPdp,
     R::kRetry, 0, "UeDevice::OnPdpTimeout with NAS retries on"},
    {{"SM"}, "Activate PDP Context Accept received", kNoKind, kPdp,
     R::kSuccess},
    {{"SM"}, "PDP activation abandoned", kNoKind, kPdp, R::kFailure, 0,
     "UeDevice::OnPdpTimeout once NAS retries run out"},
    // RecoveryMonitor transitions: "<property> outage begins" and
    // "<property> recovered after <duration>".
    {{"MONITOR"}, " outage begins", kNoKind, kOutage, R::kStart},
    {{"MONITOR"}, " recovered after", kNoKind, kOutage, R::kSuccess},
};

// The rows grouped by module, preserving table order within each group.
// Matching a record then costs one module lookup plus a scan of only that
// module's needles — the hot path of the runtime-verification gateway,
// which classifies every record of a live stream. Needles sit inline so
// the scan reads one contiguous array.
struct ModuleRows {
  std::string_view module;
  std::vector<std::pair<std::string_view, const EventRow*>> rows;
};

const std::vector<ModuleRows>& Index() {
  static const std::vector<ModuleRows> index = [] {
    std::vector<ModuleRows> groups;
    for (const EventRow& row : kRows) {
      for (const std::string_view module : row.modules) {
        if (module.empty()) continue;
        auto it = std::find_if(
            groups.begin(), groups.end(),
            [&](const ModuleRows& g) { return g.module == module; });
        if (it == groups.end()) it = groups.insert(it, {module, {}});
        it->rows.push_back({row.needle, &row});
      }
    }
    return groups;
  }();
  return index;
}

}  // namespace

// Out-of-range values (a corrupt checkpoint byte) name themselves "?".
std::string ToString(AbstractKind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < std::size(kKindNames) ? std::string(kKindNames[i]) : "?";
}

std::string ToString(SpanKind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < std::size(kSpanNames) ? std::string(kSpanNames[i]) : "?";
}

const EventRow* Classify(std::string_view module,
                         std::string_view description) {
  for (const ModuleRows& g : Index()) {
    if (module != g.module) continue;
    for (const auto& [needle, row] : g.rows) {
      if (description.find(needle) != std::string_view::npos) return row;
    }
    return nullptr;  // modules are unique across groups
  }
  return nullptr;
}

std::span<const EventRow> EventRows() { return kRows; }

}  // namespace cnv::trace
