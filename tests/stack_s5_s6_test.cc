// Validation-phase reproduction of S5 (PS rate drop during CS calls) and S6
// (3G location-update failures propagated to 4G).
#include <gtest/gtest.h>

#include <functional>

#include "stack/testbed.h"
#include "trace_count.h"

namespace cnv::stack {
namespace {

void RunUntil(Testbed& tb, const std::function<bool()>& pred,
              SimDuration limit) {
  const SimTime deadline = tb.sim().now() + limit;
  while (!pred() && tb.sim().now() < deadline) {
    tb.Run(Millis(100));
  }
}

void SetupCallWithDataIn3g(Testbed& tb) {
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(15));
  tb.ue().StartDataSession(50.0);  // saturating transfer (speed test)
  tb.Run(Seconds(2));
  ASSERT_TRUE(tb.ue().pdp_active());
  tb.ue().Dial();
  RunUntil(tb,
           [&] { return tb.ue().call_state() == UeDevice::CallState::kActive; },
           Minutes(2));
  ASSERT_EQ(tb.ue().call_state(), UeDevice::CallState::kActive);
}

TEST(StackS5Test, DownlinkRateDropsDuringCall) {
  TestbedConfig cfg;
  cfg.profile = OpI();
  Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(15));
  tb.ue().StartDataSession(50.0);
  tb.Run(Seconds(2));
  const double before =
      tb.ue().CurrentPsRateMbps(sim::Direction::kDownlink, 12);
  tb.ue().Dial();
  RunUntil(tb,
           [&] { return tb.ue().call_state() == UeDevice::CallState::kActive; },
           Minutes(2));
  const double during =
      tb.ue().CurrentPsRateMbps(sim::Direction::kDownlink, 12);
  const double drop = 1.0 - during / before;
  EXPECT_NEAR(drop, 0.74, 0.03);  // §6.2: 73.9% (OP-I) / 74.8% (OP-II)
}

TEST(StackS5Test, OpIIUplinkCollapsesDuringCall) {
  TestbedConfig cfg;
  cfg.profile = OpII();
  Testbed tb(cfg);
  SetupCallWithDataIn3g(tb);
  const double during = tb.ue().CurrentPsRateMbps(sim::Direction::kUplink, 12);
  tb.ue().HangUp();
  tb.Run(Seconds(2));
  const double after = tb.ue().CurrentPsRateMbps(sim::Direction::kUplink, 12);
  EXPECT_NEAR(1.0 - during / after, 0.96, 0.03);  // §6.2: 96.1% drop
}

TEST(StackS5Test, TraceShowsModulationDowngrade) {
  TestbedConfig cfg;
  cfg.profile = OpI();
  Testbed tb(cfg);
  SetupCallWithDataIn3g(tb);
  // Figure 10: the trace shows 64QAM disabled once the voice call starts.
  EXPECT_GE(trace::CountContaining(tb.traces().records(),
                                   "64QAM disabled during CS voice call"),
            1u);
  tb.ue().HangUp();
  tb.Run(Seconds(1));
  EXPECT_GE(trace::CountContaining(tb.traces().records(),
                                   "64QAM re-enabled"),
            1u);
}

TEST(StackS5Test, DomainDecouplingKeepsRateUp) {
  TestbedConfig cfg;
  cfg.profile = OpII();
  cfg.solutions.domain_decoupled = true;
  Testbed tb(cfg);
  SetupCallWithDataIn3g(tb);
  const double during =
      tb.ue().CurrentPsRateMbps(sim::Direction::kDownlink, 12);
  tb.ue().HangUp();
  tb.Run(Seconds(2));
  const double after =
      tb.ue().CurrentPsRateMbps(sim::Direction::kDownlink, 12);
  EXPECT_DOUBLE_EQ(during, after);  // no degradation at all
  EXPECT_GE(trace::CountContaining(tb.traces().records(),
                                   "dedicated CS channel"),
            1u);
}

// ----------------------------------------------------------------- S6 ---

void RunCsfbCallAndHangUp(Testbed& tb) {
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  tb.ue().Dial();
  RunUntil(tb,
           [&] { return tb.ue().call_state() == UeDevice::CallState::kActive; },
           Minutes(2));
  ASSERT_EQ(tb.ue().call_state(), UeDevice::CallState::kActive);
  tb.Run(Seconds(10));
  tb.ue().HangUp();
  RunUntil(tb, [&] { return tb.ue().serving() == nas::System::k4G; },
           Minutes(2));
  ASSERT_EQ(tb.ue().serving(), nas::System::k4G);
}

TEST(StackS6Test, OpILuFailurePropagatesAsImplicitDetach) {
  TestbedConfig cfg;
  cfg.profile = OpI();
  cfg.profile.lu_failure_prob = 1.0;  // force the §6.3 race
  Testbed tb(cfg);
  RunCsfbCallAndHangUp(tb);
  RunUntil(tb, [&] { return tb.ue().oos_events() > 0; }, Seconds(10));
  EXPECT_GE(tb.ue().oos_events(), 1u);
  EXPECT_GE(trace::CountContaining(tb.traces().records(),
                                   "implicitly detached"),
            1u);
}

TEST(StackS6Test, OpIIMscRejectionDetachesUe) {
  TestbedConfig cfg;
  cfg.profile = OpII();
  cfg.profile.lu_failure_prob = 1.0;
  Testbed tb(cfg);
  // Avoid the S3 stuck condition: no data session during the call.
  RunCsfbCallAndHangUp(tb);
  RunUntil(tb, [&] { return tb.ue().oos_events() > 0; }, Seconds(10));
  EXPECT_GE(tb.ue().oos_events(), 1u);
  EXPECT_GE(trace::CountContaining(tb.traces().records(),
                                   "MSC temporarily not reachable"),
            1u);
}

TEST(StackS6Test, NoRaceMeansNoDetach) {
  TestbedConfig cfg;
  cfg.profile = OpI();
  cfg.profile.lu_failure_prob = 0.0;
  Testbed tb(cfg);
  RunCsfbCallAndHangUp(tb);
  tb.Run(Seconds(10));
  EXPECT_EQ(tb.ue().oos_events(), 0u);
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
}

TEST(StackS6Test, MmeRecoveryRemedyAbsorbsTheFailure) {
  TestbedConfig cfg;
  cfg.profile = OpII();
  cfg.profile.lu_failure_prob = 1.0;
  cfg.solutions.mme_lu_recovery = true;
  Testbed tb(cfg);
  RunCsfbCallAndHangUp(tb);
  tb.Run(Seconds(10));
  // §9.3: the MME does not detach the UE; it recovers the update itself.
  EXPECT_EQ(tb.ue().oos_events(), 0u);
  EXPECT_GE(tb.mme().lu_recoveries(), 1u);
  EXPECT_TRUE(tb.msc().registered());
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
}

TEST(StackS6Test, DirectSgsFailureInjection) {
  TestbedConfig cfg;
  cfg.profile = OpI();
  Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  tb.mme().RunSgsLocationUpdate(/*race_hit=*/true);
  tb.Run(Seconds(2));
  EXPECT_GE(tb.mme().detaches_sent(), 1u);
  EXPECT_TRUE(tb.ue().out_of_service() ||
              tb.ue().emm_state() == UeDevice::EmmState::kWaitAttachAccept ||
              tb.ue().emm_state() == UeDevice::EmmState::kRegistered);
  EXPECT_GE(tb.ue().oos_events(), 1u);
}

}  // namespace
}  // namespace cnv::stack
