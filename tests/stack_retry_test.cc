// Robustness machinery: NAS retries with exponential backoff, bounded CM
// re-requests, attach backoff cycles, timer skew, and core-element outage /
// restart with optional queue-and-replay. The baseline (robust = false)
// must keep the standards-mandated fragile behaviour the S1-S6 experiments
// rely on; these tests pin down both sides.
#include <gtest/gtest.h>

#include "stack/testbed.h"

namespace cnv::stack {
namespace {

TestbedConfig Robust() {
  TestbedConfig cfg;
  cfg.robust = true;
  return cfg;
}

// --- MM: location update ------------------------------------------------

TEST(NasRetryTest, LostLocationUpdateIsRetransmittedAfterT3210) {
  Testbed tb(Robust());
  tb.ul3g_cs().ForceDropNext(1);  // the initial LU request vanishes
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(30));  // T3210 (20 s) + round trip
  EXPECT_TRUE(tb.msc().registered());
  EXPECT_EQ(tb.ue().lu_retries(), 1u);
}

TEST(NasRetryTest, BaselineStaysStuckWhenLocationUpdateIsLost) {
  Testbed tb({});
  tb.ul3g_cs().ForceDropNext(1);
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(120));
  // No guard timer: the MM state machine waits forever (the fragility the
  // fault campaigns measure).
  EXPECT_EQ(tb.ue().mm_state(), UeDevice::MmState::kLuInProgress);
  EXPECT_FALSE(tb.msc().registered());
  EXPECT_EQ(tb.ue().lu_retries(), 0u);
}

TEST(NasRetryTest, LocationUpdateRejectTriggersBackoffRetry) {
  Testbed tb(Robust());
  tb.msc().DisruptNextLocationUpdate();
  tb.ue().PowerOn(nas::System::k3G);
  // The disrupted update never completes; the guard expires, retransmits,
  // and eventually restarts the procedure, which then succeeds.
  tb.Run(Seconds(300));
  EXPECT_TRUE(tb.msc().registered());
  EXPECT_GE(tb.ue().lu_retries(), 1u);
}

// --- GMM / SM: GPRS attach, PDP activation ------------------------------

TEST(NasRetryTest, LostGprsAttachIsRetransmittedAfterT3330) {
  Testbed tb(Robust());
  tb.ul3g_ps().ForceDropNext(1);
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(30));  // T3330 (15 s) + round trip
  EXPECT_TRUE(tb.sgsn().registered());
  EXPECT_EQ(tb.ue().gmm_retries(), 1u);
}

TEST(NasRetryTest, LostPdpActivationIsRetransmittedAfterT3380) {
  Testbed tb(Robust());
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(10));
  ASSERT_TRUE(tb.sgsn().registered());
  tb.ul3g_ps().ForceDropNext(1);
  tb.ue().StartDataSession(0.1);
  tb.Run(Seconds(45));  // T3380 (30 s) + round trip
  EXPECT_TRUE(tb.ue().pdp_active());
  EXPECT_EQ(tb.ue().pdp_retries(), 1u);
}

// --- CM service ---------------------------------------------------------

TEST(CmReattemptTest, LostCmServiceRequestIsReRequested) {
  Testbed tb(Robust());
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(30));  // LU + MM-WAIT dwell complete
  tb.ul3g_cs().ForceDropNext(1);
  tb.ue().Dial();
  tb.Run(Seconds(60));  // T3230 (15 s) re-request + call setup
  EXPECT_EQ(tb.ue().call_state(), UeDevice::CallState::kActive);
  EXPECT_EQ(tb.ue().cm_retries(), 1u);
  EXPECT_EQ(tb.ue().cm_abandoned(), 0u);
}

TEST(CmReattemptTest, CmServiceIsAbandonedAfterBoundedReRequests) {
  Testbed tb(Robust());
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(30));
  tb.ul3g_cs().ForceDropNext(10);  // every request (and re-request) dies
  tb.ue().Dial();
  tb.Run(Seconds(120));
  EXPECT_EQ(tb.ue().call_state(), UeDevice::CallState::kNone);
  EXPECT_EQ(tb.ue().cm_abandoned(), 1u);
  EXPECT_EQ(tb.ue().cm_retries(), 3u);
}

// --- EMM: attach backoff ------------------------------------------------

TEST(AttachBackoffTest, ReattachCycleRunsAfterMaxAttemptsExhausted) {
  Testbed tb(Robust());
  tb.ul4g().ForceDropNext(5);  // all five T3410-guarded attempts die
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(100));  // 5 x 15 s + 10 s backoff + the successful cycle
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
  EXPECT_GE(tb.ue().attach_backoff_cycles(), 1u);
}

TEST(AttachBackoffTest, BaselineStaysOutOfServiceForever) {
  Testbed tb({});
  tb.ul4g().ForceDropNext(5);
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(600));
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kOutOfService);
  EXPECT_EQ(tb.ue().attach_backoff_cycles(), 0u);
}

// --- Timer skew ---------------------------------------------------------

TEST(TimerSkewTest, ScaleStretchesNasGuardTimers) {
  Testbed tb({});
  tb.ue().set_timer_scale(3.0);  // T3410: 15 s -> 45 s
  tb.ul4g().ForceDropNext(1);
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(30));
  // The nominal guard would have fired at 15 s; the skewed one has not.
  EXPECT_EQ(tb.ue().attach_attempts_total(), 1u);
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kWaitAttachAccept);
  tb.Run(Seconds(30));  // t = 60 s: the 45 s guard fired, retry went through
  EXPECT_EQ(tb.ue().attach_attempts_total(), 2u);
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
}

// --- Core element outage / restart --------------------------------------

TEST(CoreOutageTest, MmeOutageLosesUplinksWithoutQueueReplay) {
  Testbed tb({});
  tb.mme().BeginOutage();
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(100));  // all five attach attempts land on a dead MME
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kOutOfService);
  EXPECT_EQ(tb.mme().queued_while_down(), 0u);
  EXPECT_EQ(tb.mme().state(), Mme::EmmState::kDeregistered);
}

TEST(CoreOutageTest, MmeQueueAndReplayCompletesAttachAfterRestart) {
  Testbed tb(Robust());
  tb.mme().BeginOutage();
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(10));  // inside the first T3410 window: one queued request
  EXPECT_EQ(tb.mme().queued_while_down(), 1u);
  tb.mme().Restart(/*lose_state=*/false);
  tb.Run(Seconds(5));
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
  EXPECT_EQ(tb.mme().state(), Mme::EmmState::kRegistered);
  EXPECT_EQ(tb.mme().queued_while_down(), 0u);
}

TEST(CoreOutageTest, LossyMmeRestartForgetsRegistrationButNotHssView) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(5));
  ASSERT_EQ(tb.mme().state(), Mme::EmmState::kRegistered);
  tb.mme().BeginOutage();
  tb.mme().Restart(/*lose_state=*/true);
  // The MME forgot the UE; the UE does not know (stale registration) and
  // the HSS still shows the 4G registration — the mismatch the chaos
  // campaigns probe with a follow-up TAU.
  EXPECT_EQ(tb.mme().state(), Mme::EmmState::kDeregistered);
  EXPECT_FALSE(tb.mme().bearer_active());
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
  EXPECT_EQ(tb.hss().CurrentSystem(tb.imsi()), nas::System::k4G);
}

TEST(CoreOutageTest, HssOutageQueuesLocationReportsForReplay) {
  Testbed tb({});
  tb.hss().set_queue_while_down(true);
  tb.hss().BeginOutage();
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(5));
  // The attach completed (MME path is up); the location report queued.
  ASSERT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
  EXPECT_EQ(tb.hss().CurrentSystem(tb.imsi()), nas::System::kNone);
  EXPECT_GE(tb.hss().queued_while_down(), 1u);
  tb.hss().Restart(/*lose_state=*/false);
  EXPECT_EQ(tb.hss().CurrentSystem(tb.imsi()), nas::System::k4G);
}

TEST(CoreOutageTest, MscOutageDropsLocationUpdateBaseline) {
  Testbed tb({});
  tb.msc().BeginOutage();
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(60));
  EXPECT_FALSE(tb.msc().registered());
  EXPECT_EQ(tb.ue().mm_state(), UeDevice::MmState::kLuInProgress);
}

TEST(CoreOutageTest, MscQueueReplayPlusRetryRecoversRegistration) {
  Testbed tb(Robust());
  tb.msc().BeginOutage();
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(10));
  EXPECT_GE(tb.msc().queued_while_down(), 1u);
  tb.msc().Restart(/*lose_state=*/false);
  tb.Run(Seconds(60));
  EXPECT_TRUE(tb.msc().registered());
  EXPECT_NE(tb.ue().mm_state(), UeDevice::MmState::kLuInProgress);
}

}  // namespace
}  // namespace cnv::stack
