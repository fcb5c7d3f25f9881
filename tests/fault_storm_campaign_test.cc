// Storm campaigns and the admission-policy sweep dimension: storm plans
// exist and execute, graceful degradation is measured and differentiates
// the admission policies, the sweep crosses admission with seeds x plans x
// profiles, summaries reflect the new dimension, and parallel runs stay
// byte-identical.
#include "fault/campaign.h"

#include <cstdint>
#include <string>
#include <vector>

#include "fault/injector.h"
#include "fault/monitor.h"
#include "gtest/gtest.h"

namespace cnv::fault {
namespace {

// A scaled-down mass-attach storm overlapping the 240 s area-crossing TAU,
// small enough for unit-test budgets but heavy enough to backlog the core.
FaultPlan SmallStorm() {
  FaultPlan p = plans::MassAttachStorm();
  for (FaultAction& a : p.actions) a.count = 3000;
  return p;
}

stack::OverloadConfig Admission(stack::AdmissionPolicy policy) {
  stack::OverloadConfig cfg;
  cfg.policy = policy;
  return cfg;
}

TEST(StormPlansTest, FiveCannedStormsAreRegistered) {
  const auto storms = plans::Storms();
  ASSERT_EQ(storms.size(), 5u);
  for (const auto& p : storms) {
    EXPECT_FALSE(p.name.empty());
    EXPECT_FALSE(p.actions.empty());
  }
  // And they ride along in All() for name-based selection.
  const auto all = plans::All();
  for (const auto& s : storms) {
    bool found = false;
    for (const auto& p : all) found = found || p.name == s.name;
    EXPECT_TRUE(found) << s.name;
  }
}

TEST(DegradationTest, LegacyRunsReportInactiveDegradation) {
  CampaignConfig cfg;
  const CampaignRunner runner(cfg);
  const RunOutcome out =
      runner.RunOne(1, plans::Findings()[0], stack::OpI());
  EXPECT_FALSE(out.report.degradation.active);
  EXPECT_TRUE(out.report.degradation.within_slo());
  EXPECT_TRUE(out.admission.empty());
}

TEST(DegradationTest, UnboundedAdmissionBlowsTheDrainSlo) {
  CampaignConfig cfg;
  const CampaignRunner runner(cfg);
  const RunOutcome out = runner.RunOne(
      1, plans::MassAttachStorm(), stack::OpI(),
      Admission(stack::AdmissionPolicy::kUnbounded));
  const DegradationReport& d = out.report.degradation;
  ASSERT_TRUE(d.active);
  EXPECT_EQ(d.storm_injected, 30'000u);
  EXPECT_GT(d.queue_peak, 10'000u);
  ASSERT_TRUE(d.drained);  // it does drain eventually...
  EXPECT_GT(d.time_to_drain, d.drain_slo);  // ...but far too late
  EXPECT_FALSE(d.within_slo());
  EXPECT_EQ(out.admission, "unbounded");
}

TEST(DegradationTest, RejectBackoffDegradesWithinSlo) {
  CampaignConfig cfg;
  const CampaignRunner runner(cfg);
  const RunOutcome out = runner.RunOne(
      1, plans::MassAttachStorm(), stack::OpI(),
      Admission(stack::AdmissionPolicy::kRejectBackoff));
  const DegradationReport& d = out.report.degradation;
  ASSERT_TRUE(d.active);
  EXPECT_GT(d.rejected_congestion, 0u);
  EXPECT_LE(d.queue_peak, 16u);
  ASSERT_TRUE(d.drained);
  EXPECT_LE(d.time_to_drain, d.drain_slo);
  EXPECT_TRUE(d.within_slo());
  EXPECT_EQ(out.admission, "reject-backoff");
}

TEST(DegradationTest, PriorityShedDegradesWithinSlo) {
  CampaignConfig cfg;
  const CampaignRunner runner(cfg);
  const RunOutcome out = runner.RunOne(
      1, plans::MassAttachStorm(), stack::OpI(),
      Admission(stack::AdmissionPolicy::kPriorityShed));
  const DegradationReport& d = out.report.degradation;
  ASSERT_TRUE(d.active);
  EXPECT_GT(d.shed, 0u);
  EXPECT_TRUE(d.within_slo());
  EXPECT_EQ(out.admission, "priority-shed");
}

TEST(AdmissionSweepTest, AdmissionMultipliesTheSweep) {
  CampaignConfig cfg;
  cfg.seeds = {1};
  cfg.plans = {SmallStorm()};
  cfg.admission = {stack::OverloadConfig{},  // legacy off
                   Admission(stack::AdmissionPolicy::kRejectBackoff)};
  const CampaignResult result = CampaignRunner(cfg).Run();
  ASSERT_EQ(result.runs.size(), 2u);  // 1 seed x 1 plan x 1 profile x 2
  EXPECT_TRUE(result.runs[0].admission.empty());
  EXPECT_EQ(result.runs[1].admission, "reject-backoff");

  const std::string summary = result.Summary();
  EXPECT_NE(summary.find("admission=reject-backoff"), std::string::npos);
  EXPECT_NE(summary.find("storm"), std::string::npos);
  EXPECT_NE(summary.find("injected=3000"), std::string::npos);
}

TEST(AdmissionSweepTest, UnsweptCampaignSummaryHasNoAdmissionColumn) {
  CampaignConfig cfg;
  cfg.seeds = {1};
  const CampaignResult result = CampaignRunner(cfg).Run();
  EXPECT_EQ(result.Summary().find("admission="), std::string::npos);
}

TEST(AdmissionSweepTest, ParallelStormSweepIsByteIdenticalToSerial) {
  CampaignConfig cfg;
  cfg.seeds = {1, 2};
  cfg.plans = {SmallStorm()};
  cfg.admission = {Admission(stack::AdmissionPolicy::kUnbounded),
                   Admission(stack::AdmissionPolicy::kRejectBackoff)};
  cfg.collect_telemetry = true;

  CampaignConfig serial = cfg;
  serial.parallelism = 1;
  CampaignConfig parallel = cfg;
  parallel.parallelism = 4;
  const CampaignResult a = CampaignRunner(serial).Run();
  const CampaignResult b = CampaignRunner(parallel).Run();
  EXPECT_EQ(a.Summary(), b.Summary());
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].admission, b.runs[i].admission);
    ASSERT_TRUE(a.runs[i].telemetry.has_value());
    ASSERT_TRUE(b.runs[i].telemetry.has_value());
    EXPECT_EQ(a.runs[i].telemetry->ToJson(), b.runs[i].telemetry->ToJson());
  }
}

// --- Synthetic load on the legacy core is state-free -----------------------
//
// The legacy-core storm tally rests on one claim: on a kOff element a
// synthetic uplink changes nothing but a counter, so it can be counted
// instead of stepped. Checked here from seeded campaign states on both
// carriers, healthy and with elements down, with and without
// queue-and-replay: every message kind, offered synthetically to the MME,
// MSC and SGSN, must leave the monitor's three properties, the UE and
// element state, the trace and the pending events as they were.

std::string Describe(const stack::OverloadStats& s) {
  // background_served is the one counter a synthetic uplink may move.
  return std::to_string(s.admitted) + "/" +
         std::to_string(s.rejected_congestion) + "/" +
         std::to_string(s.shed) + "/" +
         std::to_string(s.integrity_rejected) + "/" +
         std::to_string(s.replay_dropped) + "/" +
         std::to_string(s.queue_peak);
}

std::string Fingerprint(stack::Testbed& tb, const RecoveryMonitor& monitor) {
  const stack::UeDevice& ue = tb.ue();
  const stack::Mme& mme = tb.mme();
  const stack::Msc& msc = tb.msc();
  const stack::Sgsn& sgsn = tb.sgsn();
  std::string f;
  for (const bool b :
       {monitor.MmOk(), monitor.PsOk(), monitor.CsOk(), ue.out_of_service(),
        ue.eps_bearer_active(), ue.pdp_active(), ue.data_session_active(),
        ue.in_csfb_call(), ue.awaiting_cell_reselection(), mme.available(),
        mme.bearer_active(), msc.available(), msc.registered(),
        msc.call_active(), msc.last_lu_completed(), sgsn.available(),
        sgsn.registered(), sgsn.pdp_active()}) {
    f += b ? '1' : '0';
  }
  for (const std::uint64_t n :
       {static_cast<std::uint64_t>(ue.serving()),
        static_cast<std::uint64_t>(ue.emm_state()),
        static_cast<std::uint64_t>(ue.mm_state()),
        static_cast<std::uint64_t>(ue.call_state()),
        static_cast<std::uint64_t>(mme.state()), mme.detaches_sent(),
        mme.stale_attach_detaches(), mme.sgs_update_failures(),
        mme.lu_recoveries(), msc.missed_incoming_calls(),
        static_cast<std::uint64_t>(mme.queue_depth()),
        static_cast<std::uint64_t>(msc.queue_depth()),
        static_cast<std::uint64_t>(sgsn.queue_depth()),
        static_cast<std::uint64_t>(tb.traces().records().size()),
        static_cast<std::uint64_t>(tb.sim().PendingEvents())}) {
    f += " " + std::to_string(n);
  }
  f += " mme " + Describe(mme.overload_stats());
  f += " msc " + Describe(msc.overload_stats());
  f += " sgsn " + Describe(sgsn.overload_stats());
  return f;
}

// Offers every message kind, synthetically, to each kOff core element and
// checks that only the element's served or buffered count moves.
void OfferEverySyntheticKind(stack::Testbed& tb,
                             const RecoveryMonitor& monitor,
                             bool queue_and_replay, const std::string& where) {
  for (stack::CoreElement* element :
       {static_cast<stack::CoreElement*>(&tb.mme()),
        static_cast<stack::CoreElement*>(&tb.msc()),
        static_cast<stack::CoreElement*>(&tb.sgsn())}) {
    for (int k = 0; k <= static_cast<int>(nas::MsgKind::kHssUpdateLocationAck);
         ++k) {
      nas::Message m;
      m.kind = static_cast<nas::MsgKind>(k);
      m.imsi = nas::Imsi{901'000'000'000'001ULL};
      m.synthetic = true;
      const std::string before = Fingerprint(tb, monitor);
      const std::uint64_t served =
          element->overload_stats().background_served;
      const std::size_t buffered = element->queued_while_down();
      const bool up = element->available();
      element->OnUplink(m);
      ASSERT_EQ(Fingerprint(tb, monitor), before)
          << where << " kind " << nas::ToString(m.kind);
      // Served when up; buffered for replay under queue-and-replay when
      // down; otherwise lost.
      const std::uint64_t served_now =
          element->overload_stats().background_served;
      const std::size_t buffered_now = element->queued_while_down();
      if (up) {
        EXPECT_EQ(served_now, served + 1) << where;
        EXPECT_EQ(buffered_now, buffered) << where;
      } else {
        EXPECT_EQ(served_now, served) << where;
        EXPECT_EQ(buffered_now, buffered + (queue_and_replay ? 1 : 0))
            << where;
      }
    }
  }
}

TEST(LegacyCoreStormTest, SyntheticUplinksChangeNoState) {
  std::size_t probes = 0;
  std::size_t probes_with_an_element_down = 0;
  for (const auto& profile : {stack::OpI(), stack::OpII()}) {
    for (const FaultPlan& plan :
         {plans::S1MissingBearerContext(), plans::MmeCrashRestart(),
          plans::MscOutage(), plans::SgsnFlap()}) {
      for (const bool robust : {false, true}) {
        for (const std::uint64_t seed : {1ULL, 2ULL}) {
          stack::TestbedConfig cfg;
          cfg.profile = profile;
          cfg.robust = robust;
          cfg.seed = seed;
          stack::Testbed tb(cfg);
          FaultInjector injector(tb);
          injector.Apply(plan);
          const RecoveryMonitor monitor(tb);
          CampaignRunner::ScheduleWorkload(tb);
          // Probe inside events on an off-grid cadence, so probes land
          // mid-procedure as well as between procedures.
          for (SimTime t = Millis(1'300); t < Seconds(600);
               t += Millis(13'700)) {
            tb.sim().ScheduleAt(t, [&, t] {
              const std::string where = plan.name + " " + profile.name +
                                        (robust ? " robust" : "") +
                                        " seed " + std::to_string(seed) +
                                        " t=" + std::to_string(t);
              OfferEverySyntheticKind(tb, monitor, robust, where);
              ++probes;
              if (!tb.mme().available() || !tb.msc().available() ||
                  !tb.sgsn().available()) {
                ++probes_with_an_element_down;
              }
            });
          }
          tb.Run(Seconds(600));
        }
      }
    }
  }
  EXPECT_GT(probes, 1'000u);
  EXPECT_GT(probes_with_an_element_down, 10u);
}

std::uint64_t EventsExecuted(const RunOutcome& run) {
  const std::string key = "\"sim.events_executed\":";
  const std::string& json = run.telemetry->final_metrics;
  const std::size_t at = json.find(key);
  EXPECT_NE(at, std::string::npos);
  return std::stoull(json.substr(at + key.size()));
}

// A 30k-message storm on the legacy core costs about what a storm-free cell
// does: its messages are counted, not stepped, and the monitor sleeps
// through the burst.
TEST(LegacyCoreStormTest, MassAttachCellRunsAboutAsManyEventsAsAQuietOne) {
  CampaignConfig cfg;
  cfg.collect_telemetry = true;
  const CampaignRunner runner(cfg);
  const std::uint64_t storm = EventsExecuted(
      runner.RunOne(1, plans::MassAttachStorm(), stack::OpI()));
  const std::uint64_t quiet = EventsExecuted(
      runner.RunOne(1, plans::S1MissingBearerContext(), stack::OpI()));
  EXPECT_LE(storm, 2 * quiet) << "storm " << storm << " quiet " << quiet;
}

}  // namespace
}  // namespace cnv::fault
