// Storm campaigns and the admission-policy sweep dimension: storm plans
// exist and execute, graceful degradation is measured and differentiates
// the admission policies, the sweep crosses admission with seeds x plans x
// profiles, summaries reflect the new dimension, and parallel runs stay
// byte-identical.
#include "fault/campaign.h"

#include <string>

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

}  // namespace
}  // namespace cnv::fault
