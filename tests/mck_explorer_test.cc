#include "mck/parallel_explorer.h"

#include <gtest/gtest.h>

#include "mck/reachability.h"

#include "toy_models.h"

namespace cnv::mck {
namespace {

using toys::CounterModel;
using toys::DeadlockModel;
using toys::LossyPingModel;
using toys::PetersonModel;

PropertySet<CounterModel::State> BelowCap(int cap) {
  return {{"below_cap",
           [cap](const CounterModel::State& s) { return s.value <= cap; },
           "counter never exceeds the cap"}};
}

TEST(ExplorerTest, CorrectCounterSatisfiesInvariant) {
  CounterModel m;
  const auto r = Explore(m, BelowCap(m.cap));
  EXPECT_TRUE(r.Holds("below_cap"));
  EXPECT_EQ(r.stats.states_visited, 5u);  // 0..4
  EXPECT_FALSE(r.stats.truncated);
}

TEST(ExplorerTest, BuggyCounterYieldsCounterexample) {
  CounterModel m;
  m.buggy = true;
  const auto r = Explore(m, BelowCap(m.cap));
  ASSERT_FALSE(r.Holds("below_cap"));
  const auto* v = r.FindViolation("below_cap");
  ASSERT_NE(v, nullptr);
  EXPECT_GT(v->state.value, m.cap);
}

TEST(ExplorerTest, BfsFindsShortestCounterexample) {
  CounterModel m;
  m.buggy = true;
  const auto r = Explore(m, BelowCap(m.cap));
  const auto* v = r.FindViolation("below_cap");
  ASSERT_NE(v, nullptr);
  // Shortest: 3 normal increments to reach cap-1, then the double bump.
  EXPECT_EQ(v->trace.size(), 4u);
}

TEST(ExplorerTest, TraceReplayReachesViolatingState) {
  CounterModel m;
  m.buggy = true;
  const auto r = Explore(m, BelowCap(m.cap));
  const auto* v = r.FindViolation("below_cap");
  ASSERT_NE(v, nullptr);
  CounterModel::State s = m.initial();
  for (const auto& a : v->trace) s = m.apply(s, a);
  EXPECT_TRUE(s == v->state);
}

TEST(ExplorerTest, MaxStatesTruncates) {
  CounterModel m;
  m.cap = 1000;
  ExploreOptions opt;
  opt.max_states = 10;
  const auto r = Explore(m, BelowCap(m.cap), opt);
  EXPECT_TRUE(r.stats.truncated);
  EXPECT_LE(r.stats.states_visited, 10u);
}

TEST(ExplorerTest, PetersonGuaranteesMutualExclusion) {
  PetersonModel m;
  PropertySet<PetersonModel::State> props = {
      {"mutex",
       [](const PetersonModel::State& s) {
         return !PetersonModel::BothCritical(s);
       },
       "never both in the critical section"}};
  const auto r = Explore(m, props);
  EXPECT_TRUE(r.Holds("mutex"));
  EXPECT_GT(r.stats.states_visited, 10u);
}

TEST(ExplorerTest, BrokenPetersonViolatesMutualExclusion) {
  PetersonModel m;
  m.use_turn_variable = false;
  PropertySet<PetersonModel::State> props = {
      {"mutex",
       [](const PetersonModel::State& s) {
         return !PetersonModel::BothCritical(s);
       },
       ""}};
  const auto r = Explore(m, props);
  ASSERT_FALSE(r.Holds("mutex"));
  EXPECT_FALSE(r.FindViolation("mutex")->trace.empty());
}

// Dead ends are found by the recoverability pass: a state with no path to
// the goal. Until the ack arrives the ping is pending.
RecoverabilityResult<LossyPingModel> CheckAckReachable(
    const LossyPingModel& m) {
  return CheckRecoverable<LossyPingModel>(
      m, [](const LossyPingModel::State& s) { return !s.sender_got_ack; },
      [](const LossyPingModel::State& s) { return s.sender_got_ack; });
}

TEST(ExplorerTest, LossyPingWithoutRetransmitDeadlocks) {
  LossyPingModel m;
  m.retransmit = false;
  const auto r = CheckAckReachable(m);
  ASSERT_FALSE(r.holds);
  // The dead end is: the single allowed PING was dropped.
  EXPECT_FALSE(r.state.sender_got_ack);
  EXPECT_FALSE(r.state.receiver_got_ping);
  EXPECT_TRUE(m.enabled(r.state).empty());
}

TEST(ExplorerTest, LossyPingWithRetransmitHasBoundedDeadlockToo) {
  // Even with 3 sends, all may be dropped; the dead end remains,
  // demonstrating the bounded-retry limit rather than true liveness.
  LossyPingModel m;
  m.retransmit = true;
  const auto r = CheckAckReachable(m);
  ASSERT_FALSE(r.holds);
  EXPECT_GE(r.state.sends, 3);
  EXPECT_TRUE(m.enabled(r.state).empty());
}

TEST(ExplorerTest, ClassicLockOrderDeadlockDetected) {
  // The goal: some process holds both locks.
  DeadlockModel m;
  const auto r = CheckRecoverable<DeadlockModel>(
      m, [](const DeadlockModel::State&) { return true; },
      [](const DeadlockModel::State& s) {
        return s.progress[0] == 2 || s.progress[1] == 2;
      });
  ASSERT_FALSE(r.holds);
  // Both processes hold their first lock and wait for the other's.
  EXPECT_EQ(r.state.progress[0], 1);
  EXPECT_EQ(r.state.progress[1], 1);
  EXPECT_TRUE(m.enabled(r.state).empty());
  EXPECT_EQ(r.trace.size(), 2u);  // BFS: shortest path is two acquisitions
}

TEST(ExplorerTest, FirstViolationPerPropertyDeduplicates) {
  CounterModel m;
  m.buggy = true;
  const auto r = Explore(m, BelowCap(m.cap));
  int below_cap_violations = 0;
  for (const auto& v : r.violations) {
    if (v.property == "below_cap") ++below_cap_violations;
  }
  EXPECT_EQ(below_cap_violations, 1);
}

TEST(ExplorerTest, StatsCarryThroughputAndOccupancyFigures) {
  PetersonModel m;
  PropertySet<PetersonModel::State> props = {
      {"mutex",
       [](const PetersonModel::State& s) {
         return !PetersonModel::BothCritical(s);
       },
       ""}};
  const auto r = Explore(m, props);
  EXPECT_GE(r.stats.frontier_peak, 1u);
  EXPECT_LE(r.stats.frontier_peak, r.stats.states_visited);
  EXPECT_GT(r.stats.hash_occupancy, 0.0);
  // Wall-clock figures are measurement-only; they must be present and sane
  // but are never folded into deterministic outputs.
  EXPECT_GE(r.stats.elapsed_wall_seconds, 0.0);
  EXPECT_GE(r.stats.StatesPerSecond(), 0.0);
}

TEST(ExplorerTest, FormatTraceListsSteps) {
  CounterModel m;
  m.buggy = true;
  const auto r = Explore(m, BelowCap(m.cap));
  const auto* v = r.FindViolation("below_cap");
  ASSERT_NE(v, nullptr);
  const auto text = FormatTrace(m, *v);
  EXPECT_NE(text.find("counterexample for below_cap"), std::string::npos);
  EXPECT_NE(text.find("1. increment by"), std::string::npos);
}

TEST(ExplorerTest, MultiplePropertiesCheckedIndependently) {
  CounterModel m;
  m.buggy = true;
  PropertySet<CounterModel::State> props = BelowCap(m.cap);
  props.push_back({"nonnegative",
                   [](const CounterModel::State& s) { return s.value >= 0; },
                   ""});
  const auto r = Explore(m, props);
  EXPECT_FALSE(r.Holds("below_cap"));
  EXPECT_TRUE(r.Holds("nonnegative"));
}

TEST(ExplorerTest, InitialStateViolationHasEmptyTrace) {
  CounterModel m;
  PropertySet<CounterModel::State> props = {
      {"never_zero",
       [](const CounterModel::State& s) { return s.value != 0; },
       ""}};
  const auto r = Explore(m, props);
  const auto* v = r.FindViolation("never_zero");
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->trace.empty());
}

}  // namespace
}  // namespace cnv::mck
