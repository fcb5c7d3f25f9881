// Mobile-terminated calls (paging), VoLTE, and periodic updates.
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

TEST(MtCallTest, PagedDeviceAnswersIncomingCall) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(15));
  ASSERT_TRUE(tb.msc().registered());
  EXPECT_TRUE(tb.msc().PageForIncomingCall());
  RunUntil(tb,
           [&] { return tb.ue().call_state() == UeDevice::CallState::kActive; },
           Seconds(30));
  EXPECT_EQ(tb.ue().call_state(), UeDevice::CallState::kActive);
  tb.Run(Seconds(1));  // let the Connect reach the MSC
  EXPECT_TRUE(tb.msc().call_active());
  const auto& rec = tb.traces().records();
  EXPECT_GE(trace::CountContaining(rec, "Paging Request received"), 1u);
  EXPECT_GE(trace::CountContaining(rec, "incoming call answered"), 1u);
}

TEST(MtCallTest, IncomingCallDuringDataDegradesPsRate) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(15));
  tb.ue().StartDataSession(10.0);
  tb.Run(Seconds(2));
  const double before =
      tb.ue().CurrentPsRateMbps(sim::Direction::kDownlink, 12);
  ASSERT_TRUE(tb.msc().PageForIncomingCall());
  RunUntil(tb,
           [&] { return tb.ue().call_state() == UeDevice::CallState::kActive; },
           Seconds(30));
  const double during =
      tb.ue().CurrentPsRateMbps(sim::Direction::kDownlink, 12);
  EXPECT_LT(during, before * 0.5);  // S5 applies to MT calls too
  EXPECT_EQ(tb.ue().calls_with_data(), 1u);
}

TEST(MtCallTest, UnregisteredDeviceMissesIncomingCalls) {
  // §6.3's motivation for acting on LU failures: without a valid location
  // the incoming call cannot reach the user.
  Testbed tb({});
  // Never attach in 3G: the MSC has no registration.
  EXPECT_FALSE(tb.msc().PageForIncomingCall());
  EXPECT_EQ(tb.msc().missed_incoming_calls(), 1u);
}

TEST(MtCallTest, HangUpTerminatesMtCall) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(15));
  tb.msc().PageForIncomingCall();
  RunUntil(tb,
           [&] { return tb.ue().call_state() == UeDevice::CallState::kActive; },
           Seconds(30));
  tb.ue().HangUp();
  tb.Run(Seconds(2));
  EXPECT_EQ(tb.ue().call_state(), UeDevice::CallState::kNone);
  EXPECT_FALSE(tb.msc().call_active());
  EXPECT_FALSE(tb.channel3g().cs_call_active());
}

TEST(VolteTest, CallStaysIn4g) {
  TestbedConfig cfg;
  cfg.profile = OpI();
  cfg.profile.volte_enabled = true;
  Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  tb.ue().Dial();
  RunUntil(tb,
           [&] { return tb.ue().call_state() == UeDevice::CallState::kActive; },
           Seconds(30));
  EXPECT_EQ(tb.ue().call_state(), UeDevice::CallState::kActive);
  EXPECT_EQ(tb.ue().serving(), nas::System::k4G);  // no fallback
  EXPECT_FALSE(tb.ue().in_csfb_call());
  EXPECT_GE(trace::CountContaining(tb.traces().records(),
                                   "VoLTE call established"),
            1u);
}

TEST(VolteTest, NoCsfbDefectsWithVolte) {
  // The ablation claim: with PS voice there is no inter-system switch per
  // call, so S3 (stuck in 3G) and S6 (LU failure propagation) cannot occur.
  TestbedConfig cfg;
  cfg.profile = OpII();  // the policies that hurt CSFB users
  cfg.profile.volte_enabled = true;
  cfg.profile.lu_failure_prob = 1.0;
  Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  tb.ue().StartDataSession(0.2);
  tb.Run(Seconds(1));
  tb.ue().Dial();
  RunUntil(tb,
           [&] { return tb.ue().call_state() == UeDevice::CallState::kActive; },
           Seconds(30));
  tb.Run(Seconds(30));
  tb.ue().HangUp();
  tb.Run(Minutes(1));
  EXPECT_EQ(tb.ue().serving(), nas::System::k4G);
  EXPECT_EQ(tb.ue().oos_events(), 0u);
  EXPECT_EQ(tb.ue().stuck_in_3g_seconds().Count(), 0u);
}

TEST(VolteTest, VolteRateUnaffectedByCall) {
  TestbedConfig cfg;
  cfg.profile = OpI();
  cfg.profile.volte_enabled = true;
  Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  tb.ue().StartDataSession(10.0);
  tb.Run(Seconds(1));
  const double before =
      tb.ue().CurrentPsRateMbps(sim::Direction::kDownlink, 12);
  tb.ue().Dial();
  RunUntil(tb,
           [&] { return tb.ue().call_state() == UeDevice::CallState::kActive; },
           Seconds(30));
  EXPECT_DOUBLE_EQ(tb.ue().CurrentPsRateMbps(sim::Direction::kDownlink, 12),
                   before);
}

TEST(PeriodicUpdateTest, RefreshesIn3gOnSchedule) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(20));
  tb.ue().EnablePeriodicUpdates(Minutes(5));
  tb.Run(Minutes(16));
  const auto& rec = tb.traces().records();
  EXPECT_GE(trace::CountContaining(rec, "periodic location refresh"), 3u);
  // Each refresh produced a full update exchange.
  EXPECT_GE(trace::CountContaining(rec, "Location Updating Accept"), 4u);
}

TEST(PeriodicUpdateTest, RefreshesIn4gWithTau) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  tb.ue().EnablePeriodicUpdates(Minutes(5));
  tb.Run(Minutes(11));
  EXPECT_GE(trace::CountContaining(tb.traces().records(),
                                   "periodic tracking area update"),
            2u);
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
}

TEST(PeriodicUpdateTest, DisableStopsRefreshes) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(20));
  tb.ue().EnablePeriodicUpdates(Minutes(5));
  tb.Run(Minutes(6));
  tb.ue().EnablePeriodicUpdates(0);
  const auto count = trace::CountContaining(tb.traces().records(),
                                            "periodic location refresh");
  tb.Run(Minutes(20));
  EXPECT_EQ(trace::CountContaining(tb.traces().records(),
                                   "periodic location refresh"),
            count);
}

TEST(PeriodicUpdateTest, PeriodicLuCanCollideWithOutgoingCall) {
  // Table 4 scenario 2 colliding with a call: the S4 blocking does not need
  // mobility.
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(20));
  tb.ue().EnablePeriodicUpdates(Minutes(2));
  tb.Run(Minutes(2) + Millis(300));  // the refresh just fired
  ASSERT_NE(tb.ue().mm_state(), UeDevice::MmState::kIdle);
  tb.ue().Dial();
  tb.Run(Millis(500));
  EXPECT_GE(tb.ue().deferred_call_requests(), 1u);
}

}  // namespace
}  // namespace cnv::stack
