// Validation-phase reproduction of S3 (stuck in 3G after CSFB) and S4
// (HOL blocking of outgoing calls behind location updates).
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

void AttachAndStartHighRateData(Testbed& tb) {
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  ASSERT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
  tb.ue().StartDataSession(0.2);  // the paper's 200 kbps UDP session
  tb.Run(Seconds(1));
}

void RunCsfbCallUntilActive(Testbed& tb) {
  tb.ue().Dial();
  RunUntil(tb,
           [&] { return tb.ue().call_state() == UeDevice::CallState::kActive; },
           Minutes(2));
  ASSERT_EQ(tb.ue().call_state(), UeDevice::CallState::kActive);
  ASSERT_EQ(tb.ue().serving(), nas::System::k3G);
}

TEST(StackS3Test, CsfbCallFallsBackTo3g) {
  TestbedConfig cfg;
  cfg.profile = OpI();
  Testbed tb(cfg);
  AttachAndStartHighRateData(tb);
  RunCsfbCallUntilActive(tb);
  EXPECT_TRUE(tb.ue().in_csfb_call());
  EXPECT_EQ(tb.ue().rrc3g(), model::Rrc3g::kDch);
  EXPECT_GE(trace::CountContaining(tb.traces().records(),
                                   "redirect to 3G"),
            1u);
}

TEST(StackS3Test, OpIReturnsQuicklyButDisruptsData) {
  TestbedConfig cfg;
  cfg.profile = OpI();
  Testbed tb(cfg);
  AttachAndStartHighRateData(tb);
  RunCsfbCallUntilActive(tb);
  tb.Run(Seconds(30));
  tb.ue().HangUp();
  RunUntil(tb, [&] { return tb.ue().serving() == nas::System::k4G; },
           Minutes(1));
  EXPECT_EQ(tb.ue().serving(), nas::System::k4G);
  ASSERT_EQ(tb.ue().stuck_in_3g_seconds().Count(), 1u);
  // Table 6, OP-I: seconds, not minutes.
  EXPECT_LT(tb.ue().stuck_in_3g_seconds().Max(), 5.0);
  EXPECT_EQ(tb.ue().data_disruptions(), 1u);
}

TEST(StackS3Test, OpIIGetsStuckIn3gWhileDataLasts) {
  TestbedConfig cfg;
  cfg.profile = OpII();
  cfg.profile.lu_failure_prob = 0.0;  // isolate S3 from S6
  Testbed tb(cfg);
  AttachAndStartHighRateData(tb);
  RunCsfbCallUntilActive(tb);
  tb.Run(Seconds(10));
  tb.ue().HangUp();
  tb.Run(Minutes(5));
  // Still in 3G: the high-rate session pins DCH and cell reselection needs
  // IDLE (§5.3.1).
  EXPECT_EQ(tb.ue().serving(), nas::System::k3G);
  EXPECT_TRUE(tb.ue().awaiting_cell_reselection());
  EXPECT_EQ(tb.ue().rrc3g(), model::Rrc3g::kDch);

  // The stuck period ends with the data session.
  tb.ue().StopDataSession();
  RunUntil(tb, [&] { return tb.ue().serving() == nas::System::k4G; },
           Minutes(2));
  EXPECT_EQ(tb.ue().serving(), nas::System::k4G);
  ASSERT_EQ(tb.ue().stuck_in_3g_seconds().Count(), 1u);
  EXPECT_GT(tb.ue().stuck_in_3g_seconds().Max(), 300.0);  // ~5 min stuck
}

TEST(StackS3Test, OpIIWithoutDataReturnsAfterRrcDecay) {
  TestbedConfig cfg;
  cfg.profile = OpII();
  cfg.profile.lu_failure_prob = 0.0;
  Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  RunCsfbCallUntilActive(tb);
  tb.Run(Seconds(10));
  tb.ue().HangUp();
  RunUntil(tb, [&] { return tb.ue().serving() == nas::System::k4G; },
           Minutes(2));
  EXPECT_EQ(tb.ue().serving(), nas::System::k4G);
  ASSERT_EQ(tb.ue().stuck_in_3g_seconds().Count(), 1u);
  // DCH->FACH (5s) + FACH->IDLE (12s): around 17 s.
  EXPECT_NEAR(tb.ue().stuck_in_3g_seconds().Max(), 17.0, 2.0);
}

TEST(StackS3Test, CsfbTagRemedyUnsticksOpII) {
  TestbedConfig cfg;
  cfg.profile = OpII();
  cfg.profile.lu_failure_prob = 0.0;
  cfg.solutions.csfb_tag = true;
  Testbed tb(cfg);
  AttachAndStartHighRateData(tb);
  RunCsfbCallUntilActive(tb);
  tb.Run(Seconds(10));
  tb.ue().HangUp();
  RunUntil(tb, [&] { return tb.ue().serving() == nas::System::k4G; },
           Minutes(1));
  EXPECT_EQ(tb.ue().serving(), nas::System::k4G);
  ASSERT_EQ(tb.ue().stuck_in_3g_seconds().Count(), 1u);
  EXPECT_LT(tb.ue().stuck_in_3g_seconds().Max(), 1.0);
  EXPECT_EQ(tb.ue().data_disruptions(), 0u);
}

// ----------------------------------------------------------------- S4 ---

double MeasureCallSetupWithLuCollision(const SolutionConfig& sol) {
  TestbedConfig cfg;
  cfg.profile = OpI();
  cfg.solutions = sol;
  cfg.seed = 5;
  Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(15));
  tb.ue().CrossAreaBoundary();  // location update starts
  tb.Run(Millis(200));
  tb.ue().Dial();               // call collides with the update
  RunUntil(tb,
           [&] { return tb.ue().call_state() == UeDevice::CallState::kActive; },
           Minutes(2));
  EXPECT_EQ(tb.ue().call_state(), UeDevice::CallState::kActive);
  return tb.ue().call_setup_seconds().Values().back();
}

TEST(StackS4Test, LocationUpdateDelaysOutgoingCall) {
  const double blocked = MeasureCallSetupWithLuCollision({});
  // Baseline setup without a colliding update.
  TestbedConfig cfg;
  cfg.profile = OpI();
  cfg.seed = 5;
  Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(15));
  tb.ue().Dial();
  RunUntil(tb,
           [&] { return tb.ue().call_state() == UeDevice::CallState::kActive; },
           Minutes(2));
  const double base = tb.ue().call_setup_seconds().Values().back();
  // Figure 7: ~11.4 s average setup, ~8.3 s extra when colliding with an
  // update (~3 s LAU + ~4.3 s MM-WAIT-FOR-NET-CMD chain effect).
  EXPECT_GT(base, 8.0);
  EXPECT_LT(base, 15.0);
  EXPECT_GT(blocked - base, 4.0);
  EXPECT_LT(blocked - base, 12.0);
}

TEST(StackS4Test, DeferralIsTraced) {
  TestbedConfig cfg;
  cfg.profile = OpI();
  Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(15));
  tb.ue().CrossAreaBoundary();
  tb.Run(Millis(200));
  tb.ue().Dial();
  tb.Run(Seconds(1));
  EXPECT_GE(tb.ue().deferred_service_requests(), 1u);
  EXPECT_GE(trace::CountContaining(tb.traces().records(),
                                   "CM service request deferred"),
            1u);
}

TEST(StackS4Test, DecouplingRemovesTheDelay) {
  SolutionConfig sol;
  sol.mm_decoupled = true;
  const double decoupled = MeasureCallSetupWithLuCollision(sol);
  const double coupled = MeasureCallSetupWithLuCollision({});
  EXPECT_GT(coupled - decoupled, 4.0);
  EXPECT_LT(decoupled, 15.0);
}

TEST(StackS4Test, WaitForNetCmdKeepsBlockingAfterAccept) {
  TestbedConfig cfg;
  cfg.profile = OpI();
  Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(15));
  tb.ue().CrossAreaBoundary();
  // Wait until the update finished but MM still processes net commands.
  RunUntil(tb,
           [&] { return tb.ue().mm_state() == UeDevice::MmState::kWaitNetCmd; },
           Minutes(1));
  ASSERT_EQ(tb.ue().mm_state(), UeDevice::MmState::kWaitNetCmd);
  tb.ue().Dial();
  tb.Run(Millis(500));
  EXPECT_GE(tb.ue().deferred_service_requests(), 1u);
  EXPECT_EQ(tb.ue().call_state(), UeDevice::CallState::kPending);
}

}  // namespace
}  // namespace cnv::stack
