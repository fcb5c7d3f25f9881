#include "mck/reachability.h"

#include <gtest/gtest.h>

#include "model/s1_model.h"
#include "model/s3_model.h"
#include "toy_models.h"

namespace cnv::mck {
namespace {

using toys::CounterModel;
using toys::LossyPingModel;

TEST(ReachabilityTest, CounterAlwaysReachesCap) {
  CounterModel m;
  const auto r = CheckRecoverable<CounterModel>(
      m, [&](const CounterModel::State& s) { return s.value < m.cap; },
      [&](const CounterModel::State& s) { return s.value == m.cap; });
  EXPECT_TRUE(r.holds);
  EXPECT_EQ(r.stats.states_visited, 5u);
}

TEST(ReachabilityTest, LossyPingWithoutRetransmitIsUnrecoverable) {
  LossyPingModel m;
  m.retransmit = false;
  const auto r = CheckRecoverable<LossyPingModel>(
      m,
      [](const LossyPingModel::State& s) { return !s.sender_got_ack; },
      [](const LossyPingModel::State& s) { return s.sender_got_ack; });
  ASSERT_FALSE(r.holds);
  // The unrecoverable state: the single allowed PING was dropped.
  EXPECT_EQ(r.state.sends, 1);
  EXPECT_FALSE(r.state.ping_in_flight);
  EXPECT_FALSE(r.state.receiver_got_ping);
  // The trace leads from the initial state to it.
  LossyPingModel::State s = m.initial();
  for (const auto& a : r.trace) s = m.apply(s, a);
  EXPECT_TRUE(s == r.state);
}

TEST(ReachabilityTest, RetransmissionShrinksButKeepsTheDeadEnd) {
  LossyPingModel m;
  m.retransmit = true;
  const auto r = CheckRecoverable<LossyPingModel>(
      m,
      [](const LossyPingModel::State& s) { return !s.sender_got_ack; },
      [](const LossyPingModel::State& s) { return s.sender_got_ack; });
  // Bounded retries: all three sends can drop, still a dead end.
  ASSERT_FALSE(r.holds);
  EXPECT_GE(r.state.sends, 3);
}

TEST(ReachabilityTest, S1OutOfServiceIsAlwaysRecoverable) {
  // Figure 4's premise: the detach is temporary; re-attach always exists.
  model::S1Model m;
  const auto r = CheckRecoverable<model::S1Model>(
      m, [](const model::S1Model::State& s) { return s.out_of_service; },
      [](const model::S1Model::State& s) { return !s.out_of_service; });
  EXPECT_TRUE(r.holds);
}

TEST(ReachabilityTest, S3StuckIsSessionBoundedNotPermanent) {
  // Table 6's framing: the stuck period lasts as long as the data session;
  // stopping the session always frees the device — the stuck state is
  // recoverable, the harm is the (unbounded) delay caught by MM_OK.
  model::S3Model m;
  const auto r = CheckRecoverable<model::S3Model>(
      m, [&m](const model::S3Model::State& s) { return m.StuckIn3g(s); },
      [](const model::S3Model::State& s) {
        return s.serving == model::S3Model::Sys::k4G;
      });
  EXPECT_TRUE(r.holds);
}

TEST(ReachabilityTest, VacuousPendingHolds) {
  CounterModel m;
  const auto r = CheckRecoverable<CounterModel>(
      m, [](const CounterModel::State&) { return false; },
      [](const CounterModel::State&) { return false; });
  EXPECT_TRUE(r.holds);
}

TEST(ReachabilityTest, UnreachableGoalIsDetectedImmediately) {
  CounterModel m;
  const auto r = CheckRecoverable<CounterModel>(
      m, [](const CounterModel::State&) { return true; },
      [](const CounterModel::State& s) { return s.value > 100; });
  ASSERT_FALSE(r.holds);
  EXPECT_TRUE(r.trace.empty());  // already unrecoverable at the initial state
}

}  // namespace
}  // namespace cnv::mck
