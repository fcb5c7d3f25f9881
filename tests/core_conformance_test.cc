// Divergence paths of the conformance cross-check: every way the model and
// the stack can disagree — sim-side fix the model doesn't know, model-side
// fix the stack doesn't have, wrong carrier policy, damaged counterexample —
// must land in its own machine-readable verdict, never a silent pass.
#include "core/conformance.h"

#include <set>
#include <string>

#include "conf/crosscheck.h"
#include "gtest/gtest.h"
#include "mck/parallel_explorer.h"
#include "stack/carrier.h"

namespace cnv::core {
namespace {

TEST(ClassifyTest, CoversTheDivergenceLattice) {
  EXPECT_EQ(ConformanceRunner::Classify(true, true, true),
            conf::Verdict::kConfirmed);
  EXPECT_EQ(ConformanceRunner::Classify(true, true, false),
            conf::Verdict::kRefinementMismatch);
  EXPECT_EQ(ConformanceRunner::Classify(true, false, false),
            conf::Verdict::kModelOnlyDivergence);
  EXPECT_EQ(ConformanceRunner::Classify(true, false, true),
            conf::Verdict::kModelOnlyDivergence);
  EXPECT_EQ(ConformanceRunner::Classify(false, true, true),
            conf::Verdict::kSimOnlyDivergence);
  EXPECT_EQ(ConformanceRunner::Classify(false, true, false),
            conf::Verdict::kSimOnlyDivergence);
  EXPECT_EQ(ConformanceRunner::Classify(false, false, false),
            conf::Verdict::kAgreedAbsent);
}

TEST(VerdictTest, AllVerdictsHaveDistinctMachineReadableNames) {
  std::set<std::string> names;
  for (const auto v :
       {conf::Verdict::kConfirmed, conf::Verdict::kAgreedAbsent,
        conf::Verdict::kModelOnlyDivergence, conf::Verdict::kSimOnlyDivergence,
        conf::Verdict::kRefinementMismatch, conf::Verdict::kCarrierMismatch,
        conf::Verdict::kBadCounterexample}) {
    const std::string name = conf::ToString(v);
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << "duplicate: " << name;
  }
  EXPECT_EQ(names.size(), 7u);
}

// Model says violation, the replayed stack carries the §8 remedy and
// recovers: a model-only divergence, the expected shape when a fix is
// deployed sim-side first.
TEST(ConformanceRunnerTest, SimSideFixYieldsModelOnlyDivergence) {
  ConformanceOptions opt;
  opt.solutions.reactivate_bearer = true;  // S1 remedy
  opt.solutions.shim_layer = true;         // S2 remedy
  opt.solutions.mm_decoupled = true;       // S4 remedy
  const ConformanceRunner runner(opt);
  for (const auto id : {FindingId::kS1, FindingId::kS2, FindingId::kS4}) {
    const auto res = runner.CrossCheck(id, stack::OpI());
    EXPECT_EQ(res.verdict, conf::Verdict::kModelOnlyDivergence)
        << ToString(id) << ": " << res.detail;
    EXPECT_TRUE(res.model_violation);
    EXPECT_FALSE(res.probe_reproduced);
  }
}

// The reverse: the model checks the fixed design but the stack still runs
// the standards-mandated defect — a sim-only divergence.
TEST(ConformanceRunnerTest, ModelSideFixYieldsSimOnlyDivergence) {
  ConformanceOptions opt;
  opt.model_solutions = true;
  const ConformanceRunner runner(opt);
  for (const auto id : {FindingId::kS1, FindingId::kS2, FindingId::kS4}) {
    const auto res = runner.CrossCheck(id, stack::OpI());
    EXPECT_EQ(res.verdict, conf::Verdict::kSimOnlyDivergence)
        << ToString(id) << ": " << res.detail;
    EXPECT_FALSE(res.model_violation);
    EXPECT_TRUE(res.probe_reproduced);
  }
}

// S3 modeled with the cell-reselection policy but replayed on the
// release-with-redirect carrier: the counterexample cannot reproduce there
// and the mismatch is reported as such, not as a divergence.
TEST(ConformanceRunnerTest, WrongCarrierPolicyYieldsCarrierMismatch) {
  ASSERT_NE(stack::OpI().csfb_return_policy,
            model::SwitchPolicy::kCellReselection);
  const conf::ScenarioCheck check = conf::BuildScenarioCheck(
      conf::Scenario::kS3, model::SwitchPolicy::kCellReselection);
  ASSERT_TRUE(check.model_violation);
  const auto res = conf::CrossCheck(check, stack::OpI(), {});
  EXPECT_EQ(res.verdict, conf::Verdict::kCarrierMismatch) << res.detail;
  EXPECT_FALSE(res.probe);
  EXPECT_NE(res.detail.find("policy"), std::string::npos);
}

// A truncated counterexample no longer ends in a violating state; the
// compiler must refuse it and the cross-check must surface that refusal
// without replaying anything.
TEST(ConformanceRunnerTest, TruncatedCounterexampleYieldsBadCounterexample) {
  conf::ScenarioCheck check = conf::BuildScenarioCheck(
      conf::Scenario::kS1, stack::OpI().csfb_return_policy);
  const model::S1Model m;
  const auto explored = mck::Explore(m, m.Properties());
  const auto* found = explored.FindViolation(model::kPacketServiceOk);
  ASSERT_NE(found, nullptr);
  auto v = *found;
  v.trace.resize(1);
  check.compiled = conf::CompileS1(m, v);
  ASSERT_FALSE(check.compiled.ok);
  const auto res = conf::CrossCheck(check, stack::OpI(), {});
  EXPECT_EQ(res.verdict, conf::Verdict::kBadCounterexample);
  EXPECT_EQ(res.detail, check.compiled.error);
  EXPECT_FALSE(res.detail.empty());
  EXPECT_TRUE(res.outcome.records.empty());
}

// The probe fires but the abstracted trace lacks an event the
// counterexample expects: same symptom, different mechanism.
TEST(CrossCheckTest, UnrefinedTraceYieldsRefinementMismatch) {
  conf::ScenarioCheck check = conf::BuildScenarioCheck(
      conf::Scenario::kS1, stack::OpI().csfb_return_policy);
  check.compiled.script.expected.push_back(conf::AbstractKind::kStormBegins);
  const auto res = conf::CrossCheck(check, stack::OpI(), {});
  EXPECT_EQ(res.verdict, conf::Verdict::kRefinementMismatch) << res.detail;
  EXPECT_TRUE(res.probe);
  EXPECT_FALSE(res.refined);
  EXPECT_NE(res.detail.find(conf::ToString(conf::AbstractKind::kStormBegins)),
            std::string::npos)
      << res.detail;
}

// S3 on OP-I with matching model policy: both sides agree the defect is
// absent on this carrier.
TEST(ConformanceRunnerTest, S3OnReleaseWithRedirectCarrierAgreesAbsent) {
  const ConformanceRunner runner;
  const auto res = runner.CrossCheck(FindingId::kS3, stack::OpI());
  EXPECT_EQ(res.verdict, conf::Verdict::kAgreedAbsent) << res.detail;
  EXPECT_FALSE(res.model_violation);
  EXPECT_FALSE(res.probe_reproduced);
}

TEST(ConformanceRunnerTest, ValidationOnlyFindingsAreReportedNotCrossChecked) {
  const ConformanceRunner runner;
  for (const auto id : {FindingId::kS5, FindingId::kS6}) {
    const auto res = runner.CrossCheck(id, stack::OpI());
    EXPECT_EQ(res.verdict, conf::Verdict::kAgreedAbsent);
    EXPECT_NE(res.detail.find("validation-only"), std::string::npos)
        << res.detail;
  }
}

TEST(ConformanceRunnerTest, RunAllCoversS1ThroughS4) {
  const ConformanceRunner runner;
  const auto results = runner.RunAll(stack::OpII());
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].id, FindingId::kS1);
  EXPECT_EQ(results[3].id, FindingId::kS4);
  // On OP-II all four screening findings reproduce (S3's affected carrier).
  for (const auto& r : results) {
    EXPECT_EQ(r.verdict, conf::Verdict::kConfirmed)
        << ToString(r.id) << ": " << r.detail;
  }
  const std::string text = ConformanceRunner::Format(results);
  EXPECT_NE(text.find("confirmed"), std::string::npos);
  EXPECT_NE(text.find("S4"), std::string::npos);
}

}  // namespace
}  // namespace cnv::core
