// RecoveryMonitor: property establishment, outage/recovery accounting
// against SLO bounds, and the counter-based finding probes.
#include <gtest/gtest.h>

#include <limits>

#include "fault/injector.h"
#include "fault/monitor.h"

namespace cnv::fault {
namespace {

const PropertyReport* Prop(const MonitorReport& r, const std::string& name) {
  for (const auto& p : r.properties) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

TEST(RecoveryMonitorTest, CleanRunEstablishesAllPropertiesWithinSlo) {
  stack::Testbed tb({});
  RecoveryMonitor monitor(tb);
  monitor.Start();
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(60));
  const MonitorReport report = monitor.Finalize();
  ASSERT_EQ(report.properties.size(), 3u);
  for (const auto& p : report.properties) {
    EXPECT_TRUE(p.established) << p.name;
    EXPECT_TRUE(p.ok_at_end) << p.name;
    EXPECT_EQ(p.outages, 0) << p.name;
  }
  EXPECT_TRUE(report.all_within_slo());
  EXPECT_TRUE(report.findings.empty());
}

TEST(RecoveryMonitorTest, NeverEstablishedCountsAsOneFullRunOutage) {
  stack::Testbed tb({});
  RecoveryMonitor monitor(tb);
  monitor.Start();
  tb.Run(Seconds(50));  // UE never powers on
  const MonitorReport report = monitor.Finalize();
  for (const auto& p : report.properties) {
    EXPECT_FALSE(p.established) << p.name;
    EXPECT_EQ(p.outages, 1) << p.name;
    EXPECT_EQ(p.total_outage, Seconds(50)) << p.name;
    EXPECT_FALSE(p.within_slo()) << p.name;
  }
  EXPECT_FALSE(report.all_within_slo());
}

TEST(RecoveryMonitorTest, MmeOutageShowsUpAsPacketServiceOutage) {
  stack::Testbed tb({});
  RecoveryMonitor monitor(tb);
  monitor.Start();
  FaultInjector inj(tb);
  inj.Apply(plans::MmeCrashRestart());  // down 60-90 s, lossy restart
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(300));
  const MonitorReport report = monitor.Finalize();
  const PropertyReport* ps = Prop(report, "PacketService_OK");
  ASSERT_NE(ps, nullptr);
  EXPECT_GE(ps->outages, 1);
  EXPECT_GE(ps->longest_outage, Seconds(30));
  // The periodic TAU (or a detach/reattach) brings service back well
  // inside the default 120 s bound only if something re-registers the UE;
  // with no periodic updates scheduled here, recovery happens lazily, so
  // just check the accounting is self-consistent.
  EXPECT_GE(ps->total_outage, ps->longest_outage);
}

TEST(RecoveryMonitorTest, RecoveryWithinSloAfterShortOutage) {
  stack::TestbedConfig cfg;
  cfg.robust = true;
  stack::Testbed tb(cfg);
  RecoveryMonitor monitor(tb);  // 120 s per property
  monitor.Start();
  FaultInjector inj(tb);
  // Outage window before the attach even starts; queued uplinks replay.
  inj.Apply({.name = "t",
             .description = "",
             .actions = {{.at = Millis(1),
                         .kind = FaultKind::kElementOutage,
                         .target = FaultTarget::kMme},
                        {.at = Seconds(20),
                         .kind = FaultKind::kElementRestart,
                         .target = FaultTarget::kMme,
                         .lose_state = false}}});
  tb.sim().ScheduleAt(Millis(10), [&tb] { tb.ue().PowerOn(nas::System::k4G); });
  tb.Run(Seconds(120));
  const MonitorReport report = monitor.Finalize();
  for (const auto& p : report.properties) {
    EXPECT_TRUE(p.established) << p.name;
    EXPECT_TRUE(p.ok_at_end) << p.name;
  }
  EXPECT_TRUE(report.all_within_slo());
}

TEST(RecoveryMonitorTest, TransitionsEmitRecoveryTraceRecords) {
  stack::Testbed tb({});
  RecoveryMonitor monitor(tb);
  monitor.Start();
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(30));
  monitor.Finalize();
  std::size_t recov = 0;
  for (const auto& r : tb.traces().records()) {
    if (r.type == trace::TraceType::kRecovery) ++recov;
  }
  EXPECT_GE(recov, 3u);  // at least the three "established" records
}

// With nothing else scheduled, a sample skips every grid point before the
// next wheel tick (~1.05 s): an idle 600 s run costs about one sample per
// tick instead of 6,000, and still reports the whole run as one outage.
TEST(RecoveryMonitorTest, IdleTestbedSamplesAboutOncePerWheelTick) {
  stack::Testbed tb({});
  RecoveryMonitor monitor(tb);
  monitor.Start();
  const std::uint64_t before = tb.sim().ExecutedEvents();
  tb.Run(Seconds(600));
  const std::uint64_t samples = tb.sim().ExecutedEvents() - before;
  const SimDuration wheel_tick = SimDuration{1} << 20;
  EXPECT_LE(samples, static_cast<std::uint64_t>(Seconds(600) / wheel_tick + 2));
  EXPECT_GT(samples, 0u);
  const MonitorReport report = monitor.Finalize();
  for (const auto& p : report.properties) {
    EXPECT_FALSE(p.established) << p.name;
    EXPECT_EQ(p.total_outage, Seconds(600)) << p.name;
  }
}

// The only pending event sits at 590 s, so the sample at 0.1 s sleeps
// until then: the quiet stretch costs one sample, not one per wheel tick.
// Past 590 s the queue is empty and the once-per-tick fallback covers the
// last 10 s. The report matches the idle run's.
TEST(RecoveryMonitorTest, QuietStretchCostsOneSample) {
  stack::Testbed idle_tb({});
  RecoveryMonitor idle_monitor(idle_tb);
  idle_monitor.Start();
  idle_tb.Run(Seconds(600));
  const MonitorReport idle = idle_monitor.Finalize();

  stack::Testbed tb({});
  RecoveryMonitor monitor(tb);
  monitor.Start();
  bool fired = false;
  tb.sim().ScheduleAt(Seconds(590), [&fired] { fired = true; });
  const std::uint64_t before = tb.sim().ExecutedEvents();
  tb.Run(Seconds(600));
  ASSERT_TRUE(fired);
  const std::uint64_t samples = tb.sim().ExecutedEvents() - before - 1;
  EXPECT_LE(samples, 15u);
  EXPECT_GT(samples, 0u);
  const MonitorReport report = monitor.Finalize();
  ASSERT_EQ(report.properties.size(), idle.properties.size());
  for (std::size_t i = 0; i < report.properties.size(); ++i) {
    const PropertyReport& p = report.properties[i];
    const PropertyReport& q = idle.properties[i];
    EXPECT_EQ(p.name, q.name);
    EXPECT_EQ(p.established, q.established) << p.name;
    EXPECT_EQ(p.ok_at_end, q.ok_at_end) << p.name;
    EXPECT_EQ(p.outages, q.outages) << p.name;
    EXPECT_EQ(p.total_outage, q.total_outage) << p.name;
    EXPECT_EQ(p.longest_outage, q.longest_outage) << p.name;
  }
  EXPECT_EQ(report.findings.size(), idle.findings.size());
  EXPECT_EQ(report.all_within_slo(), idle.all_within_slo());
}

// An event at the largest representable time is a valid next event; the
// sample before it must still land on a representable grid point.
TEST(RecoveryMonitorTest, EventAtTheEndOfTimeDoesNotOverflowTheSkip) {
  stack::Testbed tb({});
  RecoveryMonitor monitor(tb);
  monitor.Start();
  tb.sim().ScheduleAt(std::numeric_limits<SimTime>::max(), [] {});
  const std::uint64_t before = tb.sim().ExecutedEvents();
  tb.Run(Seconds(10));
  EXPECT_EQ(tb.sim().ExecutedEvents() - before, 1u);  // the sample at 0.1 s
  const MonitorReport report = monitor.Finalize();
  for (const auto& p : report.properties) {
    EXPECT_FALSE(p.established) << p.name;
    EXPECT_EQ(p.total_outage, Seconds(10)) << p.name;
  }
}

TEST(RecoveryMonitorTest, ProbeFindingsIsQuietOnAHealthyRun) {
  stack::Testbed tb({});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(60));
  EXPECT_TRUE(RecoveryMonitor::ProbeFindings(tb).empty());
}

TEST(RecoveryMonitorTest, ProbeFindingsReportsForcedSgsFailureAsS6) {
  stack::Testbed tb({});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(30));
  tb.mme().ForceNextSgsRace();
  tb.ue().Dial();
  tb.Run(Seconds(60));
  tb.ue().HangUp();
  tb.Run(Seconds(120));
  const auto findings = RecoveryMonitor::ProbeFindings(tb);
  bool has_s6 = false;
  for (const auto& f : findings) has_s6 |= (f.id == "S6");
  EXPECT_TRUE(has_s6);
}

}  // namespace
}  // namespace cnv::fault
