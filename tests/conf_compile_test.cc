// Counterexample-to-scenario compiler: each S1–S4 screening-model violation
// must compile into a deterministic simulator script, and damaged
// counterexamples (truncated traces, unknown properties) must be refused
// rather than silently compiled.
#include "conf/compile.h"

#include <algorithm>

#include "gtest/gtest.h"
#include "mck/parallel_explorer.h"
#include "mck/random_walk.h"
#include "model/s1_model.h"
#include "model/s2_model.h"
#include "model/s3_model.h"
#include "model/s4_model.h"
#include "model/vocab.h"

namespace cnv::conf {
namespace {

template <typename M>
mck::Violation<M> FirstViolation(const M& m, const std::string& property) {
  auto props = [&] {
    if constexpr (requires { M::Properties(); }) {
      return M::Properties();
    } else {
      return m.Properties();
    }
  }();
  const auto result = mck::Explore(m, props, {});
  const auto* v = result.FindViolation(property);
  EXPECT_NE(v, nullptr) << property;
  return v == nullptr ? mck::Violation<M>{} : *v;
}

bool HasOp(const ScenarioScript& s, Op op) {
  return std::any_of(s.steps.begin(), s.steps.end(),
                     [&](const ScriptStep& st) { return st.op == op; });
}

bool Expects(const ScenarioScript& s, AbstractKind k) {
  return std::find(s.expected.begin(), s.expected.end(), k) !=
         s.expected.end();
}

TEST(CompileS1Test, CanonicalCounterexampleCompiles) {
  const model::S1Model m;
  const auto v = FirstViolation(m, model::kPacketServiceOk);
  const auto r = CompileS1(m, v);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.script.scenario, Scenario::kS1);
  EXPECT_FALSE(r.script.required_policy.has_value());
  // The script starts from a registered 4G device, visits 3G, loses the PDP
  // context there and switches back.
  ASSERT_GE(r.script.steps.size(), 2u);
  EXPECT_EQ(r.script.steps[0].op, Op::kPowerOn4g);
  EXPECT_EQ(r.script.steps[1].op, Op::kAwaitAttach4g);
  EXPECT_TRUE(HasOp(r.script, Op::kSwitchTo3g));
  EXPECT_TRUE(HasOp(r.script, Op::kDeactivatePdp));
  EXPECT_TRUE(HasOp(r.script, Op::kSwitchTo4g));
  EXPECT_TRUE(Expects(r.script, AbstractKind::kPdpDeactivated));
  EXPECT_TRUE(Expects(r.script, AbstractKind::kNetworkDetach));
  EXPECT_FALSE(r.script.source.empty());
}

TEST(CompileS1Test, TruncatedTraceIsRejected) {
  const model::S1Model m;
  auto v = FirstViolation(m, model::kPacketServiceOk);
  ASSERT_GE(v.trace.size(), 2u);
  v.trace.resize(1);
  const auto r = CompileS1(m, v);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("truncated"), std::string::npos) << r.error;
}

TEST(CompileS1Test, UnknownPropertyIsRejected) {
  const model::S1Model m;
  auto v = FirstViolation(m, model::kPacketServiceOk);
  v.property = "NoSuchProperty";
  EXPECT_FALSE(CompileS1(m, v).ok);
}

TEST(CompileS2Test, LostAttachCompleteShapeCompiles) {
  const model::S2Model m;
  const auto v = FirstViolation(m, model::kPacketServiceOk);
  const auto r = CompileS2(m, v);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.script.scenario, Scenario::kS2);
  // BFS finds the lost-Attach-Complete shape first: the replay drops the
  // Complete over the air, then a TAU surfaces the implicit detach.
  EXPECT_TRUE(HasOp(r.script, Op::kDropNextUplink4g));
  EXPECT_TRUE(HasOp(r.script, Op::kCrossAreaBoundary));
  EXPECT_TRUE(Expects(r.script, AbstractKind::kAttachComplete));
  EXPECT_TRUE(Expects(r.script, AbstractKind::kTauRequest));
  EXPECT_TRUE(Expects(r.script, AbstractKind::kNetworkDetach));
}

TEST(CompileS2Test, DuplicateAttachShapeCompiles) {
  // Figure 5(b): with loss disabled, the shortest counterexample is the
  // duplicate-attach shape — the held stale Attach Request is reprocessed
  // after the accepted one and the reject implicitly detaches the device.
  model::S2Model::Config cfg;
  cfg.allow_loss = false;
  cfg.allow_duplicate = true;
  const model::S2Model m(cfg);
  const auto v = FirstViolation(m, model::kPacketServiceOk);
  const auto r = CompileS2(m, v);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(HasOp(r.script, Op::kDeferNextUplink4g));
  EXPECT_TRUE(HasOp(r.script, Op::kDuplicateAttachRejects));
  EXPECT_FALSE(HasOp(r.script, Op::kDropNextUplink4g));
  EXPECT_TRUE(Expects(r.script, AbstractKind::kAttachReject));
  EXPECT_TRUE(Expects(r.script, AbstractKind::kNetworkDetach));
}

TEST(CompileS2Test, TruncatedTraceIsRejected) {
  const model::S2Model m;
  auto v = FirstViolation(m, model::kPacketServiceOk);
  v.trace.resize(2);
  EXPECT_FALSE(CompileS2(m, v).ok);
}

TEST(CompileS3Test, ReselectionCounterexampleCarriesRequiredPolicy) {
  model::S3Model::Config cfg;
  cfg.policy = model::SwitchPolicy::kCellReselection;
  const model::S3Model m(cfg);
  const auto v = FirstViolation(m, model::kMmOk);
  const auto r = CompileS3(m, v);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.script.scenario, Scenario::kS3);
  ASSERT_TRUE(r.script.required_policy.has_value());
  EXPECT_EQ(*r.script.required_policy, model::SwitchPolicy::kCellReselection);
  EXPECT_TRUE(HasOp(r.script, Op::kStartData));
  EXPECT_TRUE(HasOp(r.script, Op::kDial));
  EXPECT_TRUE(HasOp(r.script, Op::kHangUp));
  EXPECT_TRUE(Expects(r.script, AbstractKind::kCsfbFallback));
  EXPECT_TRUE(Expects(r.script, AbstractKind::kCallEnded));
}

TEST(CompileS3Test, TruncatedTraceIsRejected) {
  model::S3Model::Config cfg;
  cfg.policy = model::SwitchPolicy::kCellReselection;
  const model::S3Model m(cfg);
  auto v = FirstViolation(m, model::kMmOk);
  ASSERT_GE(v.trace.size(), 2u);
  v.trace.resize(1);
  EXPECT_FALSE(CompileS3(m, v).ok);
}

TEST(CompileS4Test, HolBlockingCounterexampleCompiles) {
  const model::S4Model m;
  const auto v = FirstViolation(m, model::kCallServiceOk);
  const auto r = CompileS4(m, v);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.script.scenario, Scenario::kS4);
  EXPECT_EQ(r.script.steps[0].op, Op::kPowerOn3g);
  EXPECT_TRUE(HasOp(r.script, Op::kCrossAreaBoundary));
  EXPECT_TRUE(HasOp(r.script, Op::kDial));
  EXPECT_TRUE(Expects(r.script, AbstractKind::kLocationUpdateStart));
  EXPECT_TRUE(Expects(r.script, AbstractKind::kCallDialed));
  EXPECT_TRUE(Expects(r.script, AbstractKind::kCallDeferred));
}

TEST(CompileS4Test, TruncatedTraceIsRejected) {
  const model::S4Model m;
  auto v = FirstViolation(m, model::kCallServiceOk);
  ASSERT_GE(v.trace.size(), 2u);
  v.trace.resize(1);
  EXPECT_FALSE(CompileS4(m, v).ok);
}

// Random walks yield longer, non-minimal counterexamples that exercise the
// compilers' full action vocabulary (data toggles, RRC demotions, serve/
// defer interleavings). Every walk counterexample must either compile or be
// refused with an explicit "unsupported" reason — never crash, never emit a
// half-translated script.
template <typename M, typename CompileFn>
void CompileAllWalkViolations(const M& m, const std::string& property,
                              CompileFn compile) {
  auto props = [&] {
    if constexpr (requires { M::Properties(); }) {
      return M::Properties();
    } else {
      return m.Properties();
    }
  }();
  // A walk reports the first violation of each property, so the variety
  // comes from the seeds.
  int compiled = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    cnv::Rng rng(seed);
    mck::WalkOptions wopt;
    wopt.walks = 16;
    wopt.max_steps_per_walk = 48;
    const auto result = mck::RandomWalk(m, props, rng, wopt);
    for (const auto& v : result.violations) {
      if (v.property != property) continue;
      const auto r = compile(m, v);
      if (r.ok) {
        ++compiled;
        EXPECT_FALSE(r.script.steps.empty());
        EXPECT_FALSE(r.script.expected.empty());
      } else {
        EXPECT_NE(r.error.find("unsupported"), std::string::npos) << r.error;
      }
    }
  }
  EXPECT_GT(compiled, 0) << "no walk counterexample compiled for " << property;
}

TEST(CompileWalkTest, S1WalkCounterexamplesCompileOrReportUnsupported) {
  CompileAllWalkViolations(model::S1Model(), model::kPacketServiceOk,
                           &CompileS1);
}

TEST(CompileWalkTest, S2WalkCounterexamplesCompileOrReportUnsupported) {
  CompileAllWalkViolations(model::S2Model(), model::kPacketServiceOk,
                           &CompileS2);
}

TEST(CompileWalkTest, S3WalkCounterexamplesCompileOrReportUnsupported) {
  model::S3Model::Config cfg;
  cfg.policy = model::SwitchPolicy::kCellReselection;
  CompileAllWalkViolations(model::S3Model(cfg), model::kMmOk, &CompileS3);
}

TEST(CompileWalkTest, S4WalkCounterexamplesCompileOrReportUnsupported) {
  CompileAllWalkViolations(model::S4Model(), model::kCallServiceOk,
                           &CompileS4);
}

TEST(CompileTest, ScriptsFormatDeterministically) {
  const model::S1Model m;
  const auto v = FirstViolation(m, model::kPacketServiceOk);
  const auto a = CompileS1(m, v);
  const auto b = CompileS1(m, v);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  ASSERT_EQ(a.script.steps.size(), b.script.steps.size());
  ASSERT_FALSE(a.script.steps.empty());
  for (std::size_t i = 0; i < a.script.steps.size(); ++i) {
    EXPECT_EQ(ToString(a.script.steps[i]), ToString(b.script.steps[i]));
  }
}

}  // namespace
}  // namespace cnv::conf
