// Edge cases and defensive behaviour of the UE state machines.
#include <gtest/gtest.h>

#include "nas/timers.h"
#include "stack/scenarios.h"
#include "stack/testbed.h"
#include "trace_count.h"

namespace cnv::stack {
namespace {

TEST(UeEdgeTest, OpsBeforePowerOnAreIgnored) {
  Testbed tb({});
  tb.ue().Dial();
  tb.ue().HangUp();
  tb.ue().CrossAreaBoundary();
  tb.ue().StartDataSession(1.0);
  tb.ue().SwitchTo4g();
  tb.Run(Seconds(1));
  EXPECT_EQ(tb.ue().serving(), nas::System::kNone);
  EXPECT_EQ(tb.ue().call_state(), UeDevice::CallState::kNone);
  EXPECT_EQ(tb.sim().PendingEvents(), 0u);
}

TEST(UeEdgeTest, DoublePowerOnIsIdempotent) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k4G);
  tb.ue().PowerOn(nas::System::k3G);  // ignored: already powered
  tb.Run(Seconds(3));
  EXPECT_EQ(tb.ue().serving(), nas::System::k4G);
  EXPECT_EQ(tb.ue().attach_attempts_total(), 1u);
}

TEST(UeEdgeTest, AttachGivesUpAfterMaxRetries) {
  TestbedConfig cfg;
  cfg.radio_loss = 1.0;  // nothing gets through
  Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Minutes(3));
  EXPECT_TRUE(tb.ue().out_of_service());
  EXPECT_EQ(tb.ue().attach_attempts_total(),
            static_cast<std::uint64_t>(nas::timers::kMaxAttachAttempts));
  EXPECT_GE(trace::CountContaining(tb.traces().records(),
                                   "maximum attach attempts reached"),
            1u);
}

TEST(UeEdgeTest, DialWhileCallInProgressIsIgnored) {
  Testbed tb({});
  ASSERT_TRUE(scenario::AttachIn3g(tb));
  tb.Run(Seconds(10));
  tb.ue().Dial();
  tb.ue().Dial();  // second dial: no-op
  ASSERT_TRUE(scenario::RunUntil(
      tb,
      [&] { return tb.ue().call_state() == UeDevice::CallState::kActive; },
      Minutes(2)));
  EXPECT_EQ(tb.ue().calls_connected(), 1u);
}

TEST(UeEdgeTest, HangUpDuringSetupAbandonsCleanly) {
  Testbed tb({});
  ASSERT_TRUE(scenario::AttachIn3g(tb));
  tb.Run(Seconds(10));
  tb.ue().Dial();
  tb.Run(Seconds(2));  // CM accepted, Setup in flight, not yet connected
  tb.ue().HangUp();
  tb.Run(Seconds(30));
  EXPECT_EQ(tb.ue().call_state(), UeDevice::CallState::kNone);
  EXPECT_EQ(tb.ue().calls_connected(), 0u);
  EXPECT_FALSE(tb.channel3g().cs_call_active());
  // The stale Connect from the MSC must not resurrect the call.
  EXPECT_EQ(tb.ue().call_state(), UeDevice::CallState::kNone);
}

TEST(UeEdgeTest, SwitchTo3gWhileAlreadyOn3gIsIgnored) {
  Testbed tb({});
  ASSERT_TRUE(scenario::AttachIn3g(tb));
  const auto traces_before = tb.traces().records().size();
  tb.ue().SwitchTo3g(model::SwitchReason::kMobility);
  tb.Run(Seconds(1));
  EXPECT_EQ(tb.traces().records().size(), traces_before);
}

TEST(UeEdgeTest, EnableDataTwiceIsIdempotent) {
  Testbed tb({});
  ASSERT_TRUE(scenario::AttachIn3g(tb));
  tb.ue().EnableData(true);  // already enabled: no-op
  tb.ue().EnableData(false);
  tb.ue().EnableData(false);  // repeated: no-op
  tb.Run(Seconds(2));
  EXPECT_FALSE(tb.ue().pdp_active());
  const auto deactivations = trace::CountContaining(
      tb.traces().records(), "Deactivate PDP Context Request sent");
  EXPECT_LE(deactivations, 1u);
}

TEST(UeEdgeTest, PowerOffCancelsEverything) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  tb.ue().EnablePeriodicUpdates(Minutes(1));
  tb.ue().StartDataSession(1.0);
  tb.ue().Dial();  // CSFB in flight
  tb.Run(Millis(100));
  tb.ue().PowerOff();
  tb.Run(Minutes(5));
  EXPECT_EQ(tb.ue().serving(), nas::System::kNone);
  EXPECT_EQ(tb.ue().call_state(), UeDevice::CallState::kNone);
  EXPECT_FALSE(tb.ue().data_session_active());
}

TEST(UeEdgeTest, WeakSignalSlowsButDoesNotBreakAttach) {
  TestbedConfig cfg;
  cfg.seed = 9;
  Testbed tb(cfg);
  tb.ue().SetRssi(-112.0);  // the paper's S2 trigger zone (§5.2.2)
  tb.ue().PowerOn(nas::System::k4G);
  const bool attached = scenario::RunUntil(
      tb,
      [&] { return tb.ue().emm_state() == UeDevice::EmmState::kRegistered; },
      Minutes(5));
  // With ~35% loss per leg the attach may need retransmissions, but the
  // guard timers eventually drive it through (or the device retries).
  EXPECT_TRUE(attached);
  EXPECT_GE(tb.ue().attach_attempts_total(), 1u);
}

TEST(UeEdgeTest, CsfbDialWhileDeregisteredDoesNothingHarmful) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k4G);
  // Dial immediately, before the attach completes.
  tb.ue().Dial();
  tb.Run(Minutes(1));
  // The ESR still goes out; the call eventually establishes after attach.
  EXPECT_TRUE(tb.ue().call_state() == UeDevice::CallState::kActive ||
              tb.ue().call_state() == UeDevice::CallState::kPending ||
              tb.ue().call_state() == UeDevice::CallState::kWaitConnect ||
              tb.ue().call_state() == UeDevice::CallState::kWaitCmAccept);
  EXPECT_FALSE(tb.ue().out_of_service());
}

TEST(UeEdgeTest, StopDataSessionWithoutSessionIsNoOp) {
  Testbed tb({});
  ASSERT_TRUE(scenario::AttachIn4g(tb));
  tb.ue().StopDataSession();
  tb.Run(Seconds(1));
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
}

}  // namespace
}  // namespace cnv::stack
