#include "mck/random_walk.h"

#include <gtest/gtest.h>

#include "toy_models.h"

namespace cnv::mck {
namespace {

using toys::CounterModel;
using toys::PetersonModel;

PropertySet<CounterModel::State> BelowCap(int cap) {
  return {{"below_cap",
           [cap](const CounterModel::State& s) { return s.value <= cap; },
           ""}};
}

TEST(RandomWalkTest, FindsEasyViolation) {
  CounterModel m;
  m.buggy = true;
  Rng rng(1);
  const auto r = RandomWalk(m, BelowCap(m.cap), rng);
  EXPECT_FALSE(r.Holds("below_cap"));
  const auto* v = r.FindViolation("below_cap");
  ASSERT_NE(v, nullptr);
  // The returned trace must replay to the violating state.
  CounterModel::State s = m.initial();
  for (const auto& a : v->trace) s = m.apply(s, a);
  EXPECT_TRUE(s == v->state);
}

TEST(RandomWalkTest, CleanModelProducesNoViolation) {
  CounterModel m;
  Rng rng(2);
  WalkOptions opt;
  opt.walks = 200;
  const auto r = RandomWalk(m, BelowCap(m.cap), rng, opt);
  EXPECT_TRUE(r.Holds("below_cap"));
  EXPECT_EQ(r.stats.walks_done, 200u);
}

TEST(RandomWalkTest, StopsEarlyOnceAllPropertiesViolated) {
  CounterModel m;
  m.buggy = true;
  Rng rng(3);
  WalkOptions opt;
  opt.walks = 100'000;
  const auto r = RandomWalk(m, BelowCap(m.cap), rng, opt);
  EXPECT_LT(r.stats.walks_done, 100'000u);
}

TEST(RandomWalkTest, RespectsStepBound) {
  CounterModel m;
  m.cap = 1'000'000;  // effectively unbounded chain
  Rng rng(4);
  WalkOptions opt;
  opt.walks = 3;
  opt.max_steps_per_walk = 10;
  const auto r = RandomWalk(m, BelowCap(m.cap), rng, opt);
  EXPECT_LE(r.stats.steps_taken, 30u);
  EXPECT_LE(r.stats.distinct_states, 31u);
}

TEST(RandomWalkTest, CountsDeadEnds) {
  CounterModel m;  // cap 4: every walk hits value==4 and stops
  Rng rng(5);
  WalkOptions opt;
  opt.walks = 10;
  opt.max_steps_per_walk = 100;
  const auto r = RandomWalk(m, BelowCap(m.cap), rng, opt);
  EXPECT_EQ(r.stats.dead_ends, 10u);
}

TEST(RandomWalkTest, MoreWalksCoverMoreStates) {
  PetersonModel m;
  Rng rng1(6);
  Rng rng2(6);
  WalkOptions few;
  few.walks = 2;
  few.max_steps_per_walk = 5;
  WalkOptions many;
  many.walks = 200;
  many.max_steps_per_walk = 50;
  const auto small = RandomWalk(m, {}, rng1, few);
  const auto big = RandomWalk(m, {}, rng2, many);
  // The paper's sampling-rate claim (§3.2.1): higher sampling exposes more
  // of the behaviour space.
  EXPECT_GT(big.stats.distinct_states, small.stats.distinct_states);
}

TEST(RandomWalkTest, DeterministicGivenSeed) {
  CounterModel m;
  m.buggy = true;
  Rng rng_a(7);
  Rng rng_b(7);
  const auto a = RandomWalk(m, BelowCap(m.cap), rng_a);
  const auto b = RandomWalk(m, BelowCap(m.cap), rng_b);
  EXPECT_EQ(a.stats.steps_taken, b.stats.steps_taken);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  if (!a.violations.empty()) {
    EXPECT_EQ(a.violations[0].trace.size(), b.violations[0].trace.size());
  }
}

}  // namespace
}  // namespace cnv::mck
