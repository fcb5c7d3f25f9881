#include "conf/compile.h"

#include <optional>

namespace cnv::conf {

namespace {

using model::S1Model;
using model::S2Model;
using model::S3Model;
using model::S4Model;

// Actions carry no operator==; compare the fields their kind makes
// meaningful, so a stitched trace with e.g. the wrong deactivation cause is
// rejected.
bool SameAction(const S1Model::Action& a, const S1Model::Action& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case S1Model::Kind::kSwitchTo3G:
      return a.reason == b.reason;
    case S1Model::Kind::kDeactivatePdp:
      return a.cause == b.cause;
    default:
      return true;
  }
}
bool SameAction(const S2Model::Action& a, const S2Model::Action& b) {
  return a.kind == b.kind;
}
bool SameAction(const S3Model::Action& a, const S3Model::Action& b) {
  if (a.kind != b.kind) return false;
  return a.kind != S3Model::Kind::kStartData || a.rate == b.rate;
}
bool SameAction(const S4Model::Action& a, const S4Model::Action& b) {
  return a.kind == b.kind;
}

// Replays the counterexample through the model: every action must be
// enabled where it appears, and the final state must actually violate the
// claimed property. Returns the final state, or nullopt with `error` set.
template <typename M>
std::optional<typename M::State> ValidateTrace(const M& m,
                                               const mck::Violation<M>& v,
                                               std::string* error) {
  auto s = m.initial();
  std::size_t step = 1;
  for (const auto& a : v.trace) {
    bool enabled = false;
    for (const auto& e : m.enabled(s)) {
      if (SameAction(e, a)) {
        enabled = true;
        break;
      }
    }
    if (!enabled) {
      *error = "step " + std::to_string(step) +
               " is not enabled in the model at its position: " +
               m.describe(a);
      return std::nullopt;
    }
    s = m.apply(s, a);
    ++step;
  }
  for (const auto& p : m.Properties()) {
    if (p.name != v.property) continue;
    if (p.holds(s)) {
      *error = "trace does not end in a state violating " + v.property +
               " (truncated counterexample?)";
      return std::nullopt;
    }
    return s;
  }
  *error = "model has no property named " + v.property;
  return std::nullopt;
}

ScriptStep Run(std::int64_t millis) {
  ScriptStep s;
  s.op = Op::kRun;
  s.millis = millis;
  return s;
}

ScriptStep Simple(Op op) {
  ScriptStep s;
  s.op = op;
  return s;
}

}  // namespace

CompileResult CompileS1(const S1Model& m, const mck::Violation<S1Model>& v) {
  CompileResult res;
  if (!ValidateTrace(m, v, &res.error)) return res;

  ScenarioScript& sc = res.script;
  sc.scenario = Scenario::kS1;
  sc.source = mck::FormatTrace(m, v);
  sc.steps.push_back(Simple(Op::kPowerOn4g));
  sc.steps.push_back(Simple(Op::kAwaitAttach4g));

  auto st = m.initial();
  for (const auto& a : v.trace) {
    const auto next = m.apply(st, a);
    switch (a.kind) {
      case S1Model::Kind::kSwitchTo3G: {
        ScriptStep s;
        s.op = Op::kSwitchTo3g;
        s.reason = a.reason;
        sc.steps.push_back(s);
        // Let the LAU / GPRS attach and context migration settle.
        sc.steps.push_back(Run(10'000));
        sc.expected.push_back(a.reason == model::SwitchReason::kCsfbCall
                                  ? AbstractKind::kCsfbFallback
                                  : AbstractKind::kSwitch4gTo3g);
        break;
      }
      case S1Model::Kind::kDeactivatePdp: {
        ScriptStep s;
        s.op = Op::kDeactivatePdp;
        s.cause = a.cause;
        sc.steps.push_back(s);
        sc.steps.push_back(Run(1'000));
        sc.expected.push_back(AbstractKind::kPdpDeactivated);
        break;
      }
      case S1Model::Kind::kUserDataOff:
        sc.steps.push_back(Simple(Op::kDataOff));
        sc.steps.push_back(Run(1'000));
        sc.expected.push_back(AbstractKind::kUserDataOff);
        if (st.serving == S1Model::Sys::k3G && st.pdp_active) {
          sc.expected.push_back(AbstractKind::kPdpDeactivated);
        }
        break;
      case S1Model::Kind::kUserDataOn:
        sc.steps.push_back(Simple(Op::kDataOn));
        sc.steps.push_back(Run(1'000));
        sc.expected.push_back(AbstractKind::kUserDataOn);
        break;
      case S1Model::Kind::kSwitchTo4G:
        sc.steps.push_back(Simple(Op::kSwitchTo4g));
        sc.expected.push_back(AbstractKind::kSwitch3gTo4g);
        if (next.out_of_service) {
          // The TAU is rejected for the missing EPS bearer context and the
          // device is detached (the S1 defect).
          sc.steps.push_back(Run(5'000));
          sc.expected.push_back(AbstractKind::kNetworkDetach);
        } else {
          sc.steps.push_back(Run(2'000));
        }
        break;
      case S1Model::Kind::kReattach:
        // Recovery is operator-paced in the testbed (Figure 4); give the
        // re-attach delay room to elapse.
        sc.steps.push_back(Run(150'000));
        sc.expected.push_back(AbstractKind::kServiceRecovered);
        break;
    }
    st = next;
  }
  res.ok = true;
  return res;
}

CompileResult CompileS2(const S2Model& m, const mck::Violation<S2Model>& v) {
  CompileResult res;
  if (!ValidateTrace(m, v, &res.error)) return res;

  // Classify the counterexample into the two Figure 5 failure shapes by
  // tracking what each loss/defer action hit in flight.
  bool defer_used = false;
  bool lose_complete = false;
  bool tau = false;
  bool stale_reject = false;
  auto st = m.initial();
  for (const auto& a : v.trace) {
    switch (a.kind) {
      case S2Model::Kind::kDeferUplink:
        defer_used = true;
        break;
      case S2Model::Kind::kLoseUplink:
        if (st.uplink == S2Model::Msg::kAttachComplete) lose_complete = true;
        break;
      case S2Model::Kind::kUeTriggerTau:
        tau = true;
        break;
      case S2Model::Kind::kMmeRejectStaleAttach:
        stale_reject = true;
        break;
      default:
        break;
    }
    st = m.apply(st, a);
  }

  ScenarioScript& sc = res.script;
  sc.scenario = Scenario::kS2;
  sc.source = mck::FormatTrace(m, v);

  if (defer_used) {
    // Figure 5(b): a loaded BS defers the Attach Request; the UE
    // retransmits and completes; the stale copy then reaches the MME.
    ScriptStep policy = Simple(Op::kDuplicateAttachRejects);
    policy.flag = stale_reject;
    sc.steps.push_back(policy);
    ScriptStep defer = Simple(Op::kDeferNextUplink4g);
    defer.millis = 16'000;  // past the T3410 retransmission
    sc.steps.push_back(defer);
    sc.steps.push_back(Simple(Op::kPowerOn4g));
    sc.steps.push_back(Run(30'000));
    sc.expected = {AbstractKind::kAttachRequest, AbstractKind::kAttachAccept,
                   AbstractKind::kAttachComplete};
    if (stale_reject) {
      sc.expected.push_back(AbstractKind::kAttachReject);
      sc.expected.push_back(AbstractKind::kNetworkDetach);
    }
  } else if (lose_complete && tau) {
    // Figure 5(a): the Attach Complete is lost over the air; the next TAU
    // hits an MME that believes the attach never finished.
    sc.steps.push_back(Simple(Op::kPowerOn4g));
    // The Attach Request is already in flight; arm the drop for the next
    // uplink packet — the Attach Complete.
    ScriptStep drop = Simple(Op::kDropNextUplink4g);
    drop.count = 1;
    sc.steps.push_back(drop);
    sc.steps.push_back(Run(2'000));
    sc.steps.push_back(Simple(Op::kCrossAreaBoundary));
    sc.steps.push_back(Run(10'000));
    sc.expected = {AbstractKind::kAttachRequest, AbstractKind::kAttachAccept,
                   AbstractKind::kAttachComplete, AbstractKind::kTauRequest,
                   AbstractKind::kNetworkDetach};
  } else {
    res.error =
        "unsupported S2 counterexample shape (neither a deferred-duplicate "
        "nor a lost-Attach-Complete trace)";
    return res;
  }
  res.ok = true;
  return res;
}

CompileResult CompileS3(const S3Model& m, const mck::Violation<S3Model>& v) {
  CompileResult res;
  const auto final_state = ValidateTrace(m, v, &res.error);
  if (!final_state) return res;

  ScenarioScript& sc = res.script;
  sc.scenario = Scenario::kS3;
  sc.source = mck::FormatTrace(m, v);
  // The stuck-in-3G state only exists under the cell-reselection return
  // policy; replaying on a release-with-redirect carrier is a category
  // error the runner reports as a carrier mismatch.
  sc.required_policy = m.config().policy;
  sc.steps.push_back(Simple(Op::kPowerOn4g));
  sc.steps.push_back(Simple(Op::kAwaitAttach4g));

  auto st = m.initial();
  for (const auto& a : v.trace) {
    const auto next = m.apply(st, a);
    switch (a.kind) {
      case S3Model::Kind::kStartData: {
        ScriptStep s = Simple(Op::kStartData);
        // Below the DCH demand threshold a session holds FACH; at or above
        // it the session pins DCH — both block the RRC IDLE the
        // reselection needs.
        s.demand_mbps = a.rate == model::DataRate::kHigh ? 1.0 : 0.10;
        sc.steps.push_back(s);
        sc.steps.push_back(Run(500));
        sc.expected.push_back(AbstractKind::kDataSessionStart);
        break;
      }
      case S3Model::Kind::kStopData:
        sc.steps.push_back(Simple(Op::kStopData));
        sc.steps.push_back(Run(500));
        sc.expected.push_back(AbstractKind::kDataSessionStop);
        break;
      case S3Model::Kind::kMakeCsfbCall:
        sc.steps.push_back(Simple(Op::kDial));
        sc.steps.push_back(Simple(Op::kAwaitCallActive));
        sc.steps.push_back(Run(5'000));
        sc.expected.push_back(AbstractKind::kCallDialed);
        sc.expected.push_back(AbstractKind::kCsfbFallback);
        sc.expected.push_back(AbstractKind::kCallEstablished);
        break;
      case S3Model::Kind::kEndCall:
        sc.steps.push_back(Simple(Op::kHangUp));
        sc.steps.push_back(Run(2'000));
        sc.expected.push_back(AbstractKind::kCallEnded);
        if (m.StuckIn3g(next)) {
          sc.expected.push_back(AbstractKind::kAwaitReselection);
        }
        break;
      case S3Model::Kind::kRrcDemote:
        // Inactivity demotions are timer-driven in the stack.
        sc.steps.push_back(Run(15'000));
        break;
      case S3Model::Kind::kSwitchBackTo4g:
        sc.steps.push_back(Run(5'000));
        if (m.config().policy == model::SwitchPolicy::kCellReselection) {
          sc.expected.push_back(AbstractKind::kCellReselection);
        }
        break;
    }
    st = next;
  }
  // Hold long past the 10 s stuck threshold: a stranded device stays
  // stranded; a healthy one returns to 4G well within this window.
  sc.steps.push_back(Run(120'000));
  res.ok = true;
  return res;
}

CompileResult CompileS4(const S4Model& m, const mck::Violation<S4Model>& v) {
  CompileResult res;
  if (!ValidateTrace(m, v, &res.error)) return res;

  ScenarioScript& sc = res.script;
  sc.scenario = Scenario::kS4;
  sc.source = mck::FormatTrace(m, v);
  sc.steps.push_back(Simple(Op::kPowerOn3g));
  // Complete the initial CS + PS registrations before the scripted updates.
  sc.steps.push_back(Run(15'000));

  for (const auto& a : v.trace) {
    switch (a.kind) {
      case S4Model::Kind::kTriggerLu:
      case S4Model::Kind::kTriggerRau:
        // Crossing a location/routing area boundary triggers the update(s);
        // the deferral window is open while the update runs, so the next
        // scripted action lands inside it.
        sc.steps.push_back(Simple(Op::kCrossAreaBoundary));
        sc.steps.push_back(Run(200));
        if (a.kind == S4Model::Kind::kTriggerLu) {
          sc.expected.push_back(AbstractKind::kLocationUpdateStart);
        }
        break;
      case S4Model::Kind::kLuComplete:
        sc.steps.push_back(Run(8'000));
        sc.expected.push_back(AbstractKind::kMmWaitNetCmd);
        break;
      case S4Model::Kind::kNetCmdDone:
      case S4Model::Kind::kRauComplete:
        sc.steps.push_back(Run(8'000));
        break;
      case S4Model::Kind::kUserDialsCall:
        sc.steps.push_back(Simple(Op::kDial));
        sc.expected.push_back(AbstractKind::kCallDialed);
        break;
      case S4Model::Kind::kDeferCall:
        // The deferral happens synchronously inside the dial; nothing more
        // to drive.
        sc.steps.push_back(Run(100));
        sc.expected.push_back(AbstractKind::kCallDeferred);
        break;
      case S4Model::Kind::kRejectCall:
        res.error =
            "unsupported S4 counterexample shape: the testbed's MM defers "
            "CM service requests rather than rejecting them";
        res.ok = false;
        return res;
      case S4Model::Kind::kServeCall:
        sc.steps.push_back(Simple(Op::kAwaitCallActive));
        sc.expected.push_back(AbstractKind::kCmServiceRequest);
        sc.expected.push_back(AbstractKind::kCallEstablished);
        break;
      case S4Model::Kind::kUserStartsData: {
        ScriptStep s = Simple(Op::kStartData);
        s.demand_mbps = 1.0;
        sc.steps.push_back(s);
        sc.expected.push_back(AbstractKind::kDataSessionStart);
        break;
      }
      case S4Model::Kind::kServeData:
      case S4Model::Kind::kDeferData:
        sc.steps.push_back(Run(500));
        break;
    }
  }
  sc.steps.push_back(Run(2'000));
  res.ok = true;
  return res;
}

}  // namespace cnv::conf
