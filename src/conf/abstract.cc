#include "conf/abstract.h"

#include <algorithm>
#include <string_view>

namespace cnv::conf {

std::string ToString(AbstractKind k) {
  switch (k) {
    case AbstractKind::kSwitch4gTo3g:
      return "switch-4g-to-3g";
    case AbstractKind::kCsfbFallback:
      return "csfb-fallback";
    case AbstractKind::kSwitch3gTo4g:
      return "switch-3g-to-4g";
    case AbstractKind::kCellReselection:
      return "cell-reselection";
    case AbstractKind::kAwaitReselection:
      return "await-reselection";
    case AbstractKind::kPdpDeactivated:
      return "pdp-deactivated";
    case AbstractKind::kUserDataOff:
      return "user-data-off";
    case AbstractKind::kUserDataOn:
      return "user-data-on";
    case AbstractKind::kAttachRequest:
      return "attach-request";
    case AbstractKind::kAttachAccept:
      return "attach-accept";
    case AbstractKind::kAttachComplete:
      return "attach-complete";
    case AbstractKind::kAttachReject:
      return "attach-reject";
    case AbstractKind::kTauRequest:
      return "tau-request";
    case AbstractKind::kTauReject:
      return "tau-reject";
    case AbstractKind::kNetworkDetach:
      return "network-detach";
    case AbstractKind::kServiceRecovered:
      return "service-recovered";
    case AbstractKind::kDataSessionStart:
      return "data-session-start";
    case AbstractKind::kDataSessionStop:
      return "data-session-stop";
    case AbstractKind::kCallDialed:
      return "call-dialed";
    case AbstractKind::kCmServiceRequest:
      return "cm-service-request";
    case AbstractKind::kCallDeferred:
      return "call-deferred";
    case AbstractKind::kCallEstablished:
      return "call-established";
    case AbstractKind::kCallEnded:
      return "call-ended";
    case AbstractKind::kLocationUpdateStart:
      return "location-update-start";
    case AbstractKind::kMmWaitNetCmd:
      return "mm-wait-net-cmd";
    case AbstractKind::kCongestionReject:
      return "congestion-reject";
    case AbstractKind::kCongestionBackoff:
      return "congestion-backoff";
    case AbstractKind::kOverloadReject:
      return "overload-reject";
    case AbstractKind::kAdversarialRejected:
      return "adversarial-rejected";
    case AbstractKind::kStormBegins:
      return "storm-begins";
    case AbstractKind::kLuDeferred:
      return "lu-deferred";
    case AbstractKind::kLuDisrupted:
      return "lu-disrupted";
    case AbstractKind::kChannelDegraded:
      return "channel-degraded";
    case AbstractKind::kChannelRestored:
      return "channel-restored";
  }
  return "?";
}

namespace {

// Mapping table entry: a record whose module equals `module` and whose
// description contains `needle` abstracts to `kind`. First match wins, so
// the CSFB-specific switch rule precedes the generic one.
struct Rule {
  std::string_view module;
  std::string_view needle;
  AbstractKind kind;
};

// The abstraction-mapping table (documented in DESIGN.md). Strings are the
// exact description fragments the UE emits in src/stack/ue.cc.
constexpr Rule kRules[] = {
    {"UE", "4G->3G switch (CSFB call)", AbstractKind::kCsfbFallback},
    {"UE", "4G->3G switch", AbstractKind::kSwitch4gTo3g},
    {"UE", "3G->4G switch", AbstractKind::kSwitch3gTo4g},
    {"3G-RRC", "inter-system cell reselection to 4G",
     AbstractKind::kCellReselection},
    {"3G-RRC", "awaiting RRC IDLE for inter-system cell reselection",
     AbstractKind::kAwaitReselection},
    {"SM", "PDP context deactivated", AbstractKind::kPdpDeactivated},
    {"SM", "Deactivate PDP Context Request sent",
     AbstractKind::kPdpDeactivated},
    {"UE", "user disables mobile data", AbstractKind::kUserDataOff},
    {"UE", "user enables mobile data", AbstractKind::kUserDataOn},
    // Congestion rejects must precede the generic reject rules: an
    // "Attach Reject received (cause: congestion)" is a backoff order, not
    // the S2-style detach trigger the models reason about.
    {"EMM", "Reject received (cause: congestion", AbstractKind::kCongestionReject},
    {"MM", "Reject received (cause: congestion", AbstractKind::kCongestionReject},
    {"GMM", "Reject received (cause: congestion", AbstractKind::kCongestionReject},
    {"EMM", "T3346 armed", AbstractKind::kCongestionBackoff},
    {"MM", "T3346 armed", AbstractKind::kCongestionBackoff},
    {"GMM", "T3346 armed", AbstractKind::kCongestionBackoff},
    {"SM", "SM backoff armed", AbstractKind::kCongestionBackoff},
    // Core-side overload and adversarial screening events.
    {"EMM", "Overload reject:", AbstractKind::kOverloadReject},
    {"MM", "Overload reject:", AbstractKind::kOverloadReject},
    {"GMM", "Overload reject:", AbstractKind::kOverloadReject},
    {"EMM", "Overload shed:", AbstractKind::kOverloadReject},
    {"MM", "Overload shed:", AbstractKind::kOverloadReject},
    {"GMM", "Overload shed:", AbstractKind::kOverloadReject},
    {"EMM", "Rejected malformed", AbstractKind::kAdversarialRejected},
    {"EMM", "Rejected truncated", AbstractKind::kAdversarialRejected},
    {"EMM", "Rejected wrong protocol", AbstractKind::kAdversarialRejected},
    {"MM", "Rejected malformed", AbstractKind::kAdversarialRejected},
    {"MM", "Rejected truncated", AbstractKind::kAdversarialRejected},
    {"MM", "Rejected wrong protocol", AbstractKind::kAdversarialRejected},
    {"GMM", "Rejected malformed", AbstractKind::kAdversarialRejected},
    {"GMM", "Rejected truncated", AbstractKind::kAdversarialRejected},
    {"GMM", "Rejected wrong protocol", AbstractKind::kAdversarialRejected},
    {"EMM", "Dropped replayed", AbstractKind::kAdversarialRejected},
    {"MM", "Dropped replayed", AbstractKind::kAdversarialRejected},
    {"GMM", "Dropped replayed", AbstractKind::kAdversarialRejected},
    {"STORM", "begins", AbstractKind::kStormBegins},
    // Module "EMM" keeps these from matching the 3G "GPRS Attach ..."
    // records, which belong to GMM.
    {"EMM", "Attach Request", AbstractKind::kAttachRequest},
    {"EMM", "Attach Accept received", AbstractKind::kAttachAccept},
    {"EMM", "Attach Complete sent", AbstractKind::kAttachComplete},
    {"EMM", "Attach Reject received", AbstractKind::kAttachReject},
    {"EMM", "Tracking Area Update Request sent", AbstractKind::kTauRequest},
    {"EMM", "Tracking Area Update Reject received", AbstractKind::kTauReject},
    {"EMM", "detached by network via", AbstractKind::kNetworkDetach},
    {"EMM", "service recovered", AbstractKind::kServiceRecovered},
    {"UE", "data session starts", AbstractKind::kDataSessionStart},
    {"UE", "data session ends", AbstractKind::kDataSessionStop},
    {"CM/CC", "user dials an outgoing call", AbstractKind::kCallDialed},
    // A dial from 4G surfaces as the CSFB extended service request.
    {"EMM", "Extended Service Request (CSFB) sent", AbstractKind::kCallDialed},
    {"MM", "CM Service Request sent", AbstractKind::kCmServiceRequest},
    {"MM", "CM service request deferred", AbstractKind::kCallDeferred},
    {"CM/CC", "a call is established", AbstractKind::kCallEstablished},
    {"CM/CC", "Disconnect sent (call ends)", AbstractKind::kCallEnded},
    {"MM", "Location Updating Request sent",
     AbstractKind::kLocationUpdateStart},
    {"MM", "MM-WAIT-FOR-NET-CMD", AbstractKind::kMmWaitNetCmd},
    // Location-update coupling and shared-channel vocabulary for the online
    // S5/S6 monitors (src/rtv). These sit after the core rules so the
    // established first-match semantics above are untouched.
    {"MM", "location update deferred until the CSFB call completes",
     AbstractKind::kLuDeferred},
    {"MM", "location update disrupted by inter-system switch",
     AbstractKind::kLuDisrupted},
    {"3G-RRC", "64QAM disabled during CS voice call",
     AbstractKind::kChannelDegraded},
    {"3G-RRC", "64QAM re-enabled after voice call",
     AbstractKind::kChannelRestored},
};

// The rules grouped by module, preserving table order within each group.
// Matching a record then costs one module lookup plus a scan of only that
// module's needles — the hot path of the runtime-verification gateway,
// which matches every record of a live stream instead of whole traces.
class RuleIndex {
 public:
  RuleIndex() {
    for (const Rule& rule : kRules) {
      auto it = std::find_if(groups_.begin(), groups_.end(),
                             [&](const Group& g) {
                               return g.module == rule.module;
                             });
      if (it == groups_.end()) {
        groups_.push_back({rule.module, {}});
        it = groups_.end() - 1;
      }
      it->rules.push_back(&rule);
    }
  }

  std::optional<AbstractKind> Match(std::string_view module,
                                    std::string_view description) const {
    for (const Group& g : groups_) {
      if (module != g.module) continue;
      for (const Rule* rule : g.rules) {
        if (description.find(rule->needle) != std::string_view::npos) {
          return rule->kind;
        }
      }
      return std::nullopt;  // modules are unique across groups
    }
    return std::nullopt;
  }

 private:
  struct Group {
    std::string_view module;
    std::vector<const Rule*> rules;
  };
  std::vector<Group> groups_;
};

const RuleIndex& Index() {
  static const RuleIndex index;
  return index;
}

}  // namespace

std::optional<AbstractKind> MatchAbstractKind(std::string_view module,
                                              std::string_view description) {
  return Index().Match(module, description);
}

std::optional<AbstractKind> MatchAbstractKind(const trace::TraceRecord& r) {
  return MatchAbstractKind(r.module, r.description);
}

std::vector<AbstractEvent> AbstractTrace(
    const std::vector<trace::TraceRecord>& records) {
  std::vector<AbstractEvent> out;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (const auto kind = MatchAbstractKind(records[i])) {
      out.push_back({*kind, records[i].time, i});
    }
  }
  return out;
}

RefinementCheck CheckRefinement(const std::vector<AbstractEvent>& concrete,
                                const std::vector<AbstractKind>& expected) {
  RefinementCheck check;
  std::size_t pos = 0;
  for (std::size_t e = 0; e < expected.size(); ++e) {
    bool found = false;
    while (pos < concrete.size()) {
      if (concrete[pos].kind == expected[e]) {
        found = true;
        ++pos;
        break;
      }
      ++pos;
    }
    if (!found) {
      if (check.missing.empty()) check.failed_index = e;
      check.missing.push_back(expected[e]);
    }
  }
  check.refines = check.missing.empty();
  return check;
}

}  // namespace cnv::conf
