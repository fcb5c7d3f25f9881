// Determinism: a chaos run is fully determined by (seed, plan, profile).
// Re-running the same triple must yield a byte-identical QXDM trace and an
// identical report; different seeds may diverge but must stay deterministic
// individually.
#include <gtest/gtest.h>

#include "fault/campaign.h"

namespace cnv::fault {
namespace {

RunOutcome RunTriple(std::uint64_t seed, const FaultPlan& plan,
                     const stack::CarrierProfile& profile) {
  CampaignConfig cfg;
  return CampaignRunner(cfg, /*keep_traces=*/true).RunOne(seed, plan, profile);
}

TEST(FaultDeterminismTest, SameTripleYieldsByteIdenticalTraces) {
  for (const FaultPlan& plan :
       {plans::S2AttachDisruption(), plans::MmeCrashRestart(),
        plans::RadioBurstLoss()}) {
    const RunOutcome a = RunTriple(7, plan, stack::OpI());
    const RunOutcome b = RunTriple(7, plan, stack::OpI());
    ASSERT_FALSE(a.trace_log.empty()) << plan.name;
    EXPECT_EQ(a.trace_log, b.trace_log) << plan.name;
    EXPECT_EQ(a.faults_injected, b.faults_injected) << plan.name;
    ASSERT_EQ(a.report.properties.size(), b.report.properties.size());
    for (std::size_t i = 0; i < a.report.properties.size(); ++i) {
      const auto& pa = a.report.properties[i];
      const auto& pb = b.report.properties[i];
      EXPECT_EQ(pa.outages, pb.outages) << plan.name << " " << pa.name;
      EXPECT_EQ(pa.total_outage, pb.total_outage) << plan.name << " " << pa.name;
      EXPECT_EQ(pa.longest_outage, pb.longest_outage)
          << plan.name << " " << pa.name;
    }
    ASSERT_EQ(a.report.findings.size(), b.report.findings.size()) << plan.name;
    for (std::size_t i = 0; i < a.report.findings.size(); ++i) {
      EXPECT_EQ(a.report.findings[i].id, b.report.findings[i].id);
      EXPECT_EQ(a.report.findings[i].detail, b.report.findings[i].detail);
    }
  }
}

TEST(FaultDeterminismTest, ProfilesSelectDifferentBehaviour) {
  // Same seed and plan, different carrier: OP-I releases with redirect,
  // OP-II reselects — the traces must not be identical.
  const FaultPlan plan = plans::S3StuckIn3g();
  const RunOutcome i = RunTriple(7, plan, stack::OpI());
  const RunOutcome ii = RunTriple(7, plan, stack::OpII());
  EXPECT_NE(i.trace_log, ii.trace_log);
}

TEST(FaultDeterminismTest, EntireCampaignIsReproducible) {
  CampaignConfig cfg;
  cfg.seeds = {1, 2};
  cfg.plans = {plans::S1MissingBearerContext(), plans::S6LuFailurePropagation()};
  const std::string a = CampaignRunner(cfg).Run().Summary();
  const std::string b = CampaignRunner(cfg).Run().Summary();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace cnv::fault
