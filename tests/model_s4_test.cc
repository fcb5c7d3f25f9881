#include "model/s4_model.h"

#include <gtest/gtest.h>

#include "mck/parallel_explorer.h"

namespace cnv::model {
namespace {

using mck::Explore;

TEST(S4ModelTest, CoupledDesignViolatesBothServiceProperties) {
  S4Model m;
  const auto r = Explore(m, S4Model::Properties());
  EXPECT_FALSE(r.Holds(kCallServiceOk));
  EXPECT_FALSE(r.Holds(kPacketServiceOk));
}

TEST(S4ModelTest, CounterexampleShowsHolBlocking) {
  S4Model m;
  const auto r = Explore(m, S4Model::Properties());
  const auto* v = r.FindViolation(kCallServiceOk);
  ASSERT_NE(v, nullptr);
  // Shortest: trigger LU, dial, defer — the call waits behind the update.
  bool saw_lu = false;
  bool saw_dial = false;
  for (const auto& a : v->trace) {
    saw_lu |= a.kind == S4Model::Kind::kTriggerLu;
    saw_dial |= a.kind == S4Model::Kind::kUserDialsCall;
  }
  EXPECT_TRUE(saw_lu);
  EXPECT_TRUE(saw_dial);
  EXPECT_TRUE(v->state.call_delayed || v->state.call_rejected);
}

TEST(S4ModelTest, WaitNetCmdChainEffectAlsoBlocks) {
  // §6.1.2: even after the update completes, MM sits in
  // MM-WAIT-FOR-NET-CMD and keeps deferring call requests.
  S4Model m;
  auto s = m.initial();
  s = m.apply(s, {S4Model::Kind::kTriggerLu});
  s = m.apply(s, {S4Model::Kind::kLuComplete});
  EXPECT_EQ(s.mm, S4Model::Mm::kWaitNetCmd);
  s = m.apply(s, {S4Model::Kind::kUserDialsCall});
  bool can_serve = false, can_defer = false;
  for (const auto& a : m.enabled(s)) {
    can_serve |= a.kind == S4Model::Kind::kServeCall;
    can_defer |= a.kind == S4Model::Kind::kDeferCall;
  }
  EXPECT_FALSE(can_serve);
  EXPECT_TRUE(can_defer);
}

TEST(S4ModelTest, CallServedNormallyWhenMmIdle) {
  S4Model m;
  auto s = m.initial();
  s = m.apply(s, {S4Model::Kind::kUserDialsCall});
  bool can_serve = false;
  for (const auto& a : m.enabled(s)) {
    can_serve |= a.kind == S4Model::Kind::kServeCall;
    EXPECT_NE(a.kind, S4Model::Kind::kDeferCall);
  }
  EXPECT_TRUE(can_serve);
  s = m.apply(s, {S4Model::Kind::kServeCall});
  EXPECT_TRUE(s.call_active);
  EXPECT_FALSE(s.call_delayed);
}

TEST(S4ModelTest, DecoupledDesignIsViolationFree) {
  S4Model::Config cfg;
  cfg.decoupled = true;
  S4Model m(cfg);
  const auto r = Explore(m, S4Model::Properties());
  EXPECT_TRUE(r.Holds(kCallServiceOk));
  EXPECT_TRUE(r.Holds(kPacketServiceOk));
  EXPECT_FALSE(r.stats.truncated);
}

TEST(S4ModelTest, DecoupledServesCallDuringUpdate) {
  S4Model::Config cfg;
  cfg.decoupled = true;
  S4Model m(cfg);
  auto s = m.initial();
  s = m.apply(s, {S4Model::Kind::kTriggerLu});
  s = m.apply(s, {S4Model::Kind::kUserDialsCall});
  bool can_serve = false;
  for (const auto& a : m.enabled(s)) {
    can_serve |= a.kind == S4Model::Kind::kServeCall;
    EXPECT_NE(a.kind, S4Model::Kind::kDeferCall);
    EXPECT_NE(a.kind, S4Model::Kind::kRejectCall);
  }
  EXPECT_TRUE(can_serve);
}

TEST(S4ModelTest, PsDomainRauBlocksDataRequests) {
  S4Model::Config cfg;
  cfg.model_cs = false;  // isolate the GMM/SM pair
  S4Model m(cfg);
  const auto r = Explore(m, S4Model::Properties());
  EXPECT_FALSE(r.Holds(kPacketServiceOk));
  EXPECT_TRUE(r.Holds(kCallServiceOk));  // no CS activity modeled
}

TEST(S4ModelTest, CsDomainOnlyBlocksCalls) {
  S4Model::Config cfg;
  cfg.model_ps = false;
  S4Model m(cfg);
  const auto r = Explore(m, S4Model::Properties());
  EXPECT_FALSE(r.Holds(kCallServiceOk));
  EXPECT_TRUE(r.Holds(kPacketServiceOk));
}

TEST(S4ModelTest, RejectionIsAlsoAViolation) {
  S4Model m;
  auto s = m.initial();
  s = m.apply(s, {S4Model::Kind::kTriggerLu});
  s = m.apply(s, {S4Model::Kind::kUserDialsCall});
  s = m.apply(s, {S4Model::Kind::kRejectCall});
  EXPECT_TRUE(s.call_rejected);
  EXPECT_FALSE(s.call_pending);
  const auto props = S4Model::Properties();
  EXPECT_FALSE(props[0].holds(s));  // CallService_OK
}

TEST(S4ModelTest, StateSpaceIsExhaustable) {
  S4Model m;
  const auto r = Explore(m, S4Model::Properties());
  EXPECT_FALSE(r.stats.truncated);
  EXPECT_LT(r.stats.states_visited, 100'000u);
}

}  // namespace
}  // namespace cnv::model
