// Overload-control unit tests: bounded core queues, admission policies,
// ingress screening, the replay cache, the HSS op budget, and the UE's
// T3346 congestion-backoff discipline.
#include <gtest/gtest.h>

#include <string>

#include "stack/testbed.h"
#include "trace/qxdm.h"

namespace cnv::stack {
namespace {

TestbedConfig WithOverload(AdmissionPolicy policy,
                           std::size_t capacity = 16) {
  TestbedConfig cfg;
  cfg.profile = OpI();
  cfg.seed = 7;
  cfg.overload.enabled = true;
  cfg.overload.policy = policy;
  cfg.overload.queue_capacity = capacity;
  cfg.overload.service_time = Millis(5);
  cfg.overload.t3346_backoff = Seconds(5);
  return cfg;
}

bool TraceContains(Testbed& tb, const std::string& needle) {
  return trace::FormatLog(tb.traces().records()).find(needle) !=
         std::string::npos;
}

TEST(OverloadTest, LegacyCoreNeverQueues) {
  Testbed tb({.profile = OpI(), .solutions = {}, .seed = 7});  // overload disabled
  tb.storm().MassAttach(Millis(10), 1000, Millis(1));
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(10));
  const OverloadStats& s = tb.mme().overload_stats();
  EXPECT_EQ(s.queue_peak, 0u);
  EXPECT_EQ(s.rejected_congestion, 0u);
  EXPECT_EQ(s.shed, 0u);
  EXPECT_EQ(s.background_served, 1000u);
  // The foreground attach is untouched by the (free) background load.
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
  EXPECT_EQ(tb.ue().congestion_rejects(), 0u);
}

TEST(OverloadTest, UnboundedQueueAbsorbsEverythingButBacklogs) {
  Testbed tb(WithOverload(AdmissionPolicy::kUnbounded));
  // 1000 msgs at 1 ms spacing into a 5 ms/msg server: backlog ~800.
  tb.storm().MassAttach(Millis(10), 1000, Millis(1));
  tb.Run(Seconds(2));
  const OverloadStats& s = tb.mme().overload_stats();
  EXPECT_GT(s.queue_peak, 500u);
  EXPECT_EQ(s.rejected_congestion, 0u);
  EXPECT_EQ(s.shed, 0u);
  // Run long enough and the backlog drains completely.
  tb.Run(Seconds(10));
  EXPECT_EQ(tb.mme().queue_depth(), 0u);
  EXPECT_EQ(tb.mme().overload_stats().background_served, 1000u);
}

TEST(OverloadTest, RejectBackoffBoundsTheQueue) {
  Testbed tb(WithOverload(AdmissionPolicy::kRejectBackoff, 8));
  tb.storm().MassAttach(Millis(10), 1000, Millis(1));
  tb.Run(Seconds(10));
  const OverloadStats& s = tb.mme().overload_stats();
  EXPECT_LE(s.queue_peak, 8u);
  EXPECT_GT(s.rejected_congestion, 0u);
  EXPECT_EQ(s.offered(), 1000u);
  EXPECT_EQ(tb.mme().queue_depth(), 0u);
}

TEST(OverloadTest, ForegroundAttachIsCongestionRejectedThenRetriesAfterT3346) {
  auto cfg = WithOverload(AdmissionPolicy::kRejectBackoff, 4);
  Testbed tb(cfg);
  // The storm saturates the queue before and while the device powers on.
  tb.storm().MassAttach(Millis(10), 2000, Millis(1));
  tb.sim().ScheduleAt(Millis(100),
                      [&tb] { tb.ue().PowerOn(nas::System::k4G); });
  tb.Run(Seconds(30));
  EXPECT_GE(tb.ue().congestion_rejects(), 1u);
  EXPECT_GE(tb.ue().congestion_backoffs(), 1u);
  // After the backoff expires (storm long gone), the retry succeeds.
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
  EXPECT_TRUE(TraceContains(tb, "cause: congestion"));
  EXPECT_TRUE(TraceContains(tb, "T3346 armed"));
}

TEST(OverloadTest, PriorityShedPrefersBulkVictimsAndNotifiesRealOnes) {
  // Bulk attach storm + the real device's attach: under shed, bulk storm
  // entries are displaced first, and when the real (bulk-class) attach is
  // itself shed it gets a congestion notification instead of silence.
  Testbed tb(WithOverload(AdmissionPolicy::kPriorityShed, 4));
  tb.storm().MassAttach(Millis(10), 2000, Millis(1));
  tb.sim().ScheduleAt(Millis(100),
                      [&tb] { tb.ue().PowerOn(nas::System::k4G); });
  tb.Run(Seconds(30));
  const OverloadStats& s = tb.mme().overload_stats();
  EXPECT_GT(s.shed, 0u);
  EXPECT_EQ(s.rejected_congestion, 0u);
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
}

TEST(OverloadTest, PriorityOrderingFavoursEmergencyOverBulk) {
  EXPECT_LT(static_cast<int>(PriorityOf(nas::MsgKind::kPagingResponse)),
            static_cast<int>(PriorityOf(nas::MsgKind::kTauRequest)));
  EXPECT_LT(static_cast<int>(PriorityOf(nas::MsgKind::kTauRequest)),
            static_cast<int>(PriorityOf(nas::MsgKind::kAttachRequest)));
}

TEST(OverloadTest, PagingFloodSurvivesPriorityShedAtTheMsc) {
  Testbed tb(WithOverload(AdmissionPolicy::kPriorityShed, 4));
  // Paging responses are emergency class: even a flood beyond the queue
  // bound is never displaced by later bulk; the shed victims are the bulk
  // location updates injected alongside.
  tb.storm().PagingFlood(Millis(10), 100, Millis(1));
  tb.Run(Seconds(5));
  const OverloadStats& s = tb.msc().overload_stats();
  EXPECT_EQ(s.offered(), 100u);
  // All paging eventually served: shed only triggers when the queue is
  // full of equal-or-lower priority — the flood itself drains in order.
  EXPECT_EQ(s.background_served + s.shed, 100u);
}

TEST(OverloadTest, ScreeningRejectsMalformedWithoutStateChange) {
  Testbed tb({.profile = OpI(), .solutions = {}, .seed = 7});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(5));
  ASSERT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
  ASSERT_EQ(tb.mme().state(), Mme::EmmState::kRegistered);

  nas::Message m;
  m.kind = nas::MsgKind::kAttachRequest;
  m.protocol = nas::Protocol::kEmm;
  m.integrity = nas::MsgIntegrity::kMalformed;
  tb.mme().OnUplink(m);
  nas::Message t = m;
  t.integrity = nas::MsgIntegrity::kTruncated;
  tb.mme().OnUplink(t);
  tb.Run(Seconds(1));

  EXPECT_EQ(tb.mme().overload_stats().integrity_rejected, 2u);
  EXPECT_EQ(tb.mme().state(), Mme::EmmState::kRegistered);  // untouched
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
  EXPECT_TRUE(
      TraceContains(tb, "cause: semantically incorrect message"));
}

TEST(OverloadTest, ReplayCacheDropsDuplicateUids) {
  Testbed tb({.profile = OpI(), .solutions = {}, .seed = 7});
  nas::Message m;
  m.kind = nas::MsgKind::kAttachComplete;
  m.protocol = nas::Protocol::kEmm;
  m.uid = 42;
  tb.mme().OnUplink(m);
  tb.mme().OnUplink(m);  // replay
  tb.mme().OnUplink(m);  // and again
  tb.Run(Seconds(1));
  EXPECT_EQ(tb.mme().overload_stats().replay_dropped, 2u);
  EXPECT_TRUE(TraceContains(tb, "Dropped replayed"));
}

TEST(OverloadTest, DrainedAfterFindsTheFirstCatchUp) {
  Testbed tb(WithOverload(AdmissionPolicy::kUnbounded));
  // Burst ends at 10ms + 99ms; backlog of ~80 drains by ~0.5 s.
  tb.storm().MassAttach(Millis(10), 100, Millis(1));
  tb.Run(Seconds(30));
  const SimTime storm_end = tb.storm().last_injection_at();
  const SimTime drained = tb.mme().DrainedAfter(storm_end);
  ASSERT_GE(drained, storm_end);
  EXPECT_LT(ToSeconds(drained - storm_end), 1.0);
  // A probe instant long after the backlog cleared: empty right away.
  EXPECT_EQ(tb.mme().DrainedAfter(Seconds(20)), Seconds(20));
}

TEST(OverloadTest, HssOpBudgetShedsOverBudgetLocationOps) {
  // Core elements stay legacy (zero queueing); only the HSS gets an op
  // budget of 1 location op per 60 s window.
  Testbed tb({.profile = OpI(), .solutions = {}, .seed = 7});
  OverloadConfig budget;
  budget.enabled = true;
  budget.policy = AdmissionPolicy::kRejectBackoff;
  budget.queue_capacity = 1;
  budget.service_time = Seconds(60);
  tb.hss().ConfigureOverload(budget);
  // Attach performs an HSS location update (op 1, in budget); the periodic
  // TAUs that follow in the same window are over budget and shed.
  tb.ue().PowerOn(nas::System::k4G);
  tb.ue().EnablePeriodicUpdates(Seconds(10));
  tb.Run(Seconds(55));
  EXPECT_GT(tb.hss().overload_stats().shed, 0u);
  EXPECT_GT(tb.hss().overload_stats().admitted, 0u);
}

}  // namespace
}  // namespace cnv::stack
