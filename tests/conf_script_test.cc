// The script layer under the compiler: step formatting, the replay
// executor's full op vocabulary, and the missed-await reporting that keeps
// an undriveable script from masquerading as a divergence.
#include "conf/script.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "stack/carrier.h"

namespace cnv::conf {
namespace {

ScriptStep Step(Op op) {
  ScriptStep s;
  s.op = op;
  return s;
}

ScriptStep RunFor(std::int64_t millis) {
  ScriptStep s;
  s.op = Op::kRun;
  s.millis = millis;
  return s;
}

TEST(ScriptToStringTest, EveryOpHasADescription) {
  for (int i = 0; i <= static_cast<int>(Op::kRun); ++i) {
    ScriptStep s;
    s.op = static_cast<Op>(i);
    s.millis = 125;
    s.count = 2;
    s.demand_mbps = 0.5;
    EXPECT_FALSE(ToString(s).empty());
    EXPECT_NE(ToString(s), "?") << "op " << i;
  }
  EXPECT_EQ(ToString(Scenario::kS1), "S1");
  EXPECT_EQ(ToString(Scenario::kS4), "S4");
}

TEST(ScriptToStringTest, DuplicatePolicyStepNamesBothDirections) {
  ScriptStep s = Step(Op::kDuplicateAttachRejects);
  s.flag = true;
  const std::string rejects = ToString(s);
  s.flag = false;
  const std::string accepts = ToString(s);
  EXPECT_NE(rejects, accepts);
}

// The duplicate-attach recipe (Figure 5b) as a hand-built script: hold the
// first Attach Request past its retransmission, let the MME reject the
// reprocessed stale copy.
TEST(ReplayTest, DuplicateAttachScriptReproducesS2) {
  ScenarioScript script;
  script.scenario = Scenario::kS2;
  ScriptStep policy = Step(Op::kDuplicateAttachRejects);
  policy.flag = true;
  ScriptStep defer = Step(Op::kDeferNextUplink4g);
  defer.millis = 16'000;
  script.steps = {policy, defer, Step(Op::kPowerOn4g), RunFor(30'000)};
  script.expected = {AbstractKind::kAttachRequest, AbstractKind::kAttachAccept,
                     AbstractKind::kAttachComplete};

  const ReplayOutcome outcome = Replay(script, stack::OpI());
  EXPECT_TRUE(outcome.awaits_satisfied);
  EXPECT_TRUE(outcome.HasProbe(Scenario::kS2));
  EXPECT_TRUE(
      CheckRefinement(AbstractTrace(outcome.records), script.expected)
          .refines);
}

// Data toggling and 3G power-on drive their UE entry points; the S1 defect
// also reproduces via the user-toggle variant (§5.1.3): data off in 3G
// deactivates all PDP contexts, and with the toggle still off the 3G->4G
// switch finds no context and the network detaches the device. Re-enabling
// data afterwards exercises the recovery entry point.
TEST(ReplayTest, UserDataToggleVariantReproducesS1) {
  ScenarioScript script;
  script.scenario = Scenario::kS1;
  ScriptStep sw = Step(Op::kSwitchTo3g);
  sw.reason = model::SwitchReason::kMobility;
  script.steps = {Step(Op::kPowerOn4g), Step(Op::kAwaitAttach4g),
                  sw,        RunFor(10'000), Step(Op::kDataOff), RunFor(1'000),
                  Step(Op::kSwitchTo4g),  RunFor(5'000),
                  Step(Op::kDataOn),      RunFor(1'000)};
  script.expected = {AbstractKind::kSwitch4gTo3g, AbstractKind::kUserDataOff,
                     AbstractKind::kSwitch3gTo4g, AbstractKind::kUserDataOn};

  const ReplayOutcome outcome = Replay(script, stack::OpI());
  EXPECT_TRUE(outcome.awaits_satisfied);
  EXPECT_TRUE(outcome.HasProbe(Scenario::kS1));
  EXPECT_TRUE(
      CheckRefinement(AbstractTrace(outcome.records), script.expected)
          .refines);
}

TEST(ReplayTest, StartStopDataRoundTrip) {
  ScenarioScript script;
  script.scenario = Scenario::kS3;
  ScriptStep start = Step(Op::kStartData);
  start.demand_mbps = 0.2;
  script.steps = {Step(Op::kPowerOn4g), Step(Op::kAwaitAttach4g), start,
                  RunFor(2'000), Step(Op::kStopData), RunFor(1'000)};
  script.expected = {AbstractKind::kDataSessionStart,
                     AbstractKind::kDataSessionStop};

  const ReplayOutcome outcome = Replay(script, stack::OpI());
  EXPECT_TRUE(outcome.awaits_satisfied);
  EXPECT_FALSE(outcome.HasProbe(Scenario::kS3));
  EXPECT_TRUE(
      CheckRefinement(AbstractTrace(outcome.records), script.expected)
          .refines);
}

// A wait that cannot be satisfied is reported via first_missed_await, not
// silently swallowed — the cross-check needs to distinguish "stack diverged"
// from "script could not be driven".
TEST(ReplayTest, UnsatisfiableAwaitIsReported) {
  ScenarioScript script;
  script.scenario = Scenario::kS4;
  script.steps = {Step(Op::kPowerOn4g), Step(Op::kAwaitCallActive)};
  const ReplayOutcome outcome = Replay(script, stack::OpI());
  EXPECT_FALSE(outcome.awaits_satisfied);
  EXPECT_EQ(outcome.first_missed_await, "await active call");
}

TEST(ReplayTest, PowerOn3gRegistersInThreeG) {
  ScenarioScript script;
  script.scenario = Scenario::kS4;
  script.steps = {Step(Op::kPowerOn3g), RunFor(15'000)};
  const ReplayOutcome outcome = Replay(script, stack::OpI());
  EXPECT_TRUE(outcome.awaits_satisfied);
  EXPECT_FALSE(outcome.HasProbe(Scenario::kS4));
  EXPECT_FALSE(outcome.records.empty());
}

}  // namespace
}  // namespace cnv::conf
