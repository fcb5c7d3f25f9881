// HSS behaviour: the network-wide registration view across systems.
#include <gtest/gtest.h>

#include <functional>

#include "stack/testbed.h"

namespace cnv::stack {
namespace {

void RunUntil(Testbed& tb, const std::function<bool()>& pred,
              SimDuration limit) {
  const SimTime deadline = tb.sim().now() + limit;
  while (!pred() && tb.sim().now() < deadline) tb.Run(Millis(100));
}

TEST(HssTest, AttachRegistersIn4g) {
  Testbed tb({});
  EXPECT_EQ(tb.hss().CurrentSystem(tb.imsi()), nas::System::kNone);
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  EXPECT_EQ(tb.hss().CurrentSystem(tb.imsi()), nas::System::k4G);
  EXPECT_GE(tb.hss().updates_processed(), 1u);
}

TEST(HssTest, InterSystemSwitchMovesTheRegistration) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  tb.ue().SwitchTo3g(model::SwitchReason::kMobility);
  tb.Run(Seconds(10));
  EXPECT_EQ(tb.hss().CurrentSystem(tb.imsi()), nas::System::k3G);
  tb.ue().SwitchTo4g();
  tb.Run(Seconds(2));
  EXPECT_EQ(tb.hss().CurrentSystem(tb.imsi()), nas::System::k4G);
}

TEST(HssTest, PowerOffPurgesTheLocation) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  tb.ue().PowerOff();
  tb.Run(Seconds(1));
  EXPECT_EQ(tb.hss().CurrentSystem(tb.imsi()), nas::System::kNone);
}

TEST(HssTest, S1DetachShowsUpAsDeregisteredWindow) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  tb.ue().SwitchTo3g(model::SwitchReason::kMobility);
  tb.Run(Seconds(10));
  tb.sgsn().DeactivatePdp(nas::PdpDeactCause::kOperatorDeterminedBarring);
  tb.Run(Seconds(1));
  const SimDuration before = tb.hss().DeregisteredTime(tb.imsi());
  tb.ue().SwitchTo4g();
  RunUntil(tb, [&] { return tb.ue().recovery_seconds().Count() == 1; },
           Minutes(2));
  const SimDuration window = tb.hss().DeregisteredTime(tb.imsi()) - before;
  // The HSS-visible out-of-service window matches the measured recovery.
  EXPECT_GT(ToSeconds(window), 1.0);
  EXPECT_NEAR(ToSeconds(window), tb.ue().recovery_seconds().Values()[0],
              1.5);
  tb.Run(Seconds(1));  // let the Attach Complete reach the MME
  EXPECT_EQ(tb.hss().CurrentSystem(tb.imsi()), nas::System::k4G);
}

TEST(HssTest, NoDeregistrationWithRemedies) {
  TestbedConfig cfg;
  cfg.solutions.reactivate_bearer = true;
  Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  const SimDuration initial = tb.hss().DeregisteredTime(tb.imsi());
  tb.ue().SwitchTo3g(model::SwitchReason::kMobility);
  tb.Run(Seconds(10));
  tb.sgsn().DeactivatePdp(nas::PdpDeactCause::kOperatorDeterminedBarring);
  tb.Run(Seconds(1));
  tb.ue().SwitchTo4g();
  tb.Run(Seconds(5));
  EXPECT_EQ(tb.hss().DeregisteredTime(tb.imsi()), initial);
}

TEST(HssTest, NeverRegisteredCountsAllTimeAsDeregistered) {
  Testbed tb({});
  tb.Run(Seconds(10));
  EXPECT_EQ(tb.hss().DeregisteredTime(tb.imsi()), Seconds(10));
}

}  // namespace
}  // namespace cnv::stack
