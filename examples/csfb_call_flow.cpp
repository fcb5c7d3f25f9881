// CSFB call walkthrough: a 4G user with an ongoing data session makes a
// voice call (which falls back to 3G), hangs up, and — on a carrier using
// inter-system cell reselection — gets stuck in 3G while the data session
// lasts (finding S3). The same scenario is then replayed with the §8
// CSFB-tag remedy enabled. The full modem trace is printed for both runs.
//
// Build and run:  ./csfb_call_flow
#include <cstdio>

#include "stack/scenarios.h"
#include "stack/testbed.h"
#include "trace/qxdm.h"

using namespace cnv;
using stack::scenario::RunUntil;

namespace {

void Scenario(bool with_fix) {
  std::printf("==============================================\n");
  std::printf("CSFB call on OP-II (cell reselection), %s\n",
              with_fix ? "WITH the CSFB-tag remedy" : "standard behaviour");
  std::printf("==============================================\n");

  stack::TestbedConfig cfg;
  cfg.profile = stack::OpII();
  cfg.profile.lu_failure_prob = 0;  // keep S6 out of this walkthrough
  cfg.solutions.csfb_tag = with_fix;
  stack::Testbed tb(cfg);

  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(3));
  tb.ue().StartDataSession(0.2);  // 200 kbps UDP, holds 3G DCH
  tb.Run(Seconds(1));

  tb.ue().Dial();  // CSFB: Extended Service Request -> fallback to 3G
  RunUntil(tb,
           [&] {
             return tb.ue().call_state() ==
                    stack::UeDevice::CallState::kActive;
           },
           Minutes(2));
  std::printf("call active on %s, 3G-RRC at %s\n",
              nas::ToString(tb.ue().serving()).c_str(),
              model::ToString(tb.ue().rrc3g()).c_str());

  tb.Run(Seconds(20));
  tb.ue().HangUp();
  tb.Run(Seconds(45));

  if (tb.ue().serving() == nas::System::k3G) {
    std::printf("45s after hangup: STILL IN 3G (stuck, S3). Stopping the "
                "data session...\n");
    tb.ue().StopDataSession();
    RunUntil(tb, [&] { return tb.ue().serving() == nas::System::k4G; },
             Minutes(2));
  }
  std::printf("back on %s; time in 3G after call end: %.1fs\n\n",
              nas::ToString(tb.ue().serving()).c_str(),
              tb.ue().stuck_in_3g_seconds().Count() > 0
                  ? tb.ue().stuck_in_3g_seconds().Values().back()
                  : -1.0);

  std::printf("trace:\n%s\n",
              trace::FormatLog(tb.traces().records()).c_str());
}

}  // namespace

int main() {
  Scenario(/*with_fix=*/false);
  Scenario(/*with_fix=*/true);
  return 0;
}
