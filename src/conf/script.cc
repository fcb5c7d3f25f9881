#include "conf/script.h"

#include "stack/scenarios.h"
#include "util/strings.h"

namespace cnv::conf {

std::string ToString(Scenario s) {
  switch (s) {
    case Scenario::kS1:
      return "S1";
    case Scenario::kS2:
      return "S2";
    case Scenario::kS3:
      return "S3";
    case Scenario::kS4:
      return "S4";
  }
  return "?";
}

std::string ToString(const ScriptStep& s) {
  switch (s.op) {
    case Op::kPowerOn4g:
      return "power on (4G)";
    case Op::kPowerOn3g:
      return "power on (3G)";
    case Op::kAwaitAttach4g:
      return "await 4G attach";
    case Op::kSwitchTo3g:
      return "switch to 3G (" + model::ToString(s.reason) + ")";
    case Op::kSwitchTo4g:
      return "switch to 4G";
    case Op::kDeactivatePdp:
      return "network deactivates PDP context (" + nas::ToString(s.cause) +
             ")";
    case Op::kDataOff:
      return "user data off";
    case Op::kDataOn:
      return "user data on";
    case Op::kStartData:
      return Format("start data session (%.2f Mbps)", s.demand_mbps);
    case Op::kStopData:
      return "stop data session";
    case Op::kDial:
      return "dial";
    case Op::kAwaitCallActive:
      return "await active call";
    case Op::kHangUp:
      return "hang up";
    case Op::kCrossAreaBoundary:
      return "cross area boundary";
    case Op::kDropNextUplink4g:
      return Format("drop next %d 4G uplink packet(s)", s.count);
    case Op::kDeferNextUplink4g:
      return Format("defer next 4G uplink packet %lld ms",
                    static_cast<long long>(s.millis));
    case Op::kDuplicateAttachRejects:
      return s.flag ? "MME rejects reprocessed stale attaches"
                    : "MME re-accepts reprocessed stale attaches";
    case Op::kRun:
      return Format("run %lld ms", static_cast<long long>(s.millis));
  }
  return "?";
}

bool ReplayOutcome::HasProbe(Scenario s) const {
  const std::string id = ToString(s);
  for (const auto& p : probes) {
    if (p.id == id) return true;
  }
  return false;
}

ReplayOutcome Replay(const ScenarioScript& script,
                     const stack::CarrierProfile& profile,
                     const ReplayOptions& options) {
  stack::TestbedConfig cfg;
  cfg.profile = profile;
  cfg.profile.lu_failure_prob = 0.0;
  cfg.profile.pdp_deact_in_3g_prob = 0.0;
  cfg.solutions = options.solutions;
  cfg.seed = options.seed;
  stack::Testbed tb(cfg);

  ReplayOutcome outcome;
  auto miss = [&](const ScriptStep& step) {
    if (outcome.awaits_satisfied) {
      outcome.awaits_satisfied = false;
      outcome.first_missed_await = ToString(step);
    }
  };

  for (const auto& step : script.steps) {
    switch (step.op) {
      case Op::kPowerOn4g:
        tb.ue().PowerOn(nas::System::k4G);
        break;
      case Op::kPowerOn3g:
        tb.ue().PowerOn(nas::System::k3G);
        break;
      case Op::kAwaitAttach4g:
        if (!stack::scenario::RunUntil(
                tb,
                [&] {
                  return tb.ue().emm_state() ==
                         stack::UeDevice::EmmState::kRegistered;
                },
                Seconds(30))) {
          miss(step);
        }
        break;
      case Op::kSwitchTo3g:
        tb.ue().SwitchTo3g(step.reason);
        break;
      case Op::kSwitchTo4g:
        tb.ue().SwitchTo4g();
        break;
      case Op::kDeactivatePdp:
        tb.sgsn().DeactivatePdp(step.cause);
        break;
      case Op::kDataOff:
        tb.ue().EnableData(false);
        break;
      case Op::kDataOn:
        tb.ue().EnableData(true);
        break;
      case Op::kStartData:
        tb.ue().StartDataSession(step.demand_mbps);
        break;
      case Op::kStopData:
        tb.ue().StopDataSession();
        break;
      case Op::kDial:
        tb.ue().Dial();
        break;
      case Op::kAwaitCallActive:
        if (!stack::scenario::RunUntil(
                tb,
                [&] {
                  return tb.ue().call_state() ==
                         stack::UeDevice::CallState::kActive;
                },
                Minutes(2))) {
          miss(step);
        }
        break;
      case Op::kHangUp:
        tb.ue().HangUp();
        break;
      case Op::kCrossAreaBoundary:
        tb.ue().CrossAreaBoundary();
        break;
      case Op::kDropNextUplink4g:
        tb.ul4g().ForceDropNext(step.count);
        break;
      case Op::kDeferNextUplink4g:
        tb.ul4g().DeferNext(Millis(step.millis));
        break;
      case Op::kDuplicateAttachRejects:
        tb.mme().set_duplicate_attach_rejects(step.flag);
        break;
      case Op::kRun:
        tb.Run(Millis(step.millis));
        break;
    }
  }

  outcome.probes = fault::RecoveryMonitor::ProbeFindings(tb);
  if (!tb.ue().stuck_in_3g_seconds().Empty()) {
    outcome.counters.stuck_in_3g_max_s = tb.ue().stuck_in_3g_seconds().Max();
  }
  outcome.counters.stranded_in_3g_now =
      tb.ue().serving() == nas::System::k3G &&
      tb.ue().awaiting_cell_reselection();
  outcome.records = tb.traces().records();
  return outcome;
}

}  // namespace cnv::conf
