#include "stack/scenarios.h"

namespace cnv::stack::scenario {

bool RunUntil(Testbed& tb, const std::function<bool()>& pred,
              SimDuration limit) {
  const SimTime deadline = tb.sim().now() + limit;
  while (!pred() && tb.sim().now() < deadline) {
    tb.Run(Millis(100));
  }
  return pred();
}

bool AttachIn4g(Testbed& tb) {
  tb.ue().PowerOn(nas::System::k4G);
  return RunUntil(tb,
                  [&] {
                    return tb.ue().emm_state() ==
                               UeDevice::EmmState::kRegistered &&
                           tb.ue().eps_bearer_active();
                  },
                  Minutes(3));
}

bool AttachIn3g(Testbed& tb) {
  tb.ue().PowerOn(nas::System::k3G);
  return RunUntil(
      tb, [&] { return tb.msc().registered() && tb.sgsn().registered(); },
      Minutes(3));
}

bool EstablishCall(Testbed& tb) {
  tb.ue().Dial();
  return RunUntil(tb,
                  [&] {
                    return tb.ue().call_state() ==
                           UeDevice::CallState::kActive;
                  },
                  Minutes(2));
}

}  // namespace cnv::stack::scenario
