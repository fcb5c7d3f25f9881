#include "model/s2_model.h"

#include <gtest/gtest.h>

#include "mck/parallel_explorer.h"

namespace cnv::model {
namespace {

using mck::Explore;
using mck::ExploreOptions;

TEST(S2ModelTest, UnreliableRrcViolatesPacketServiceOk) {
  S2Model m;
  const auto r = Explore(m, S2Model::Properties());
  EXPECT_FALSE(r.Holds(kPacketServiceOk));
  EXPECT_FALSE(r.Holds("PacketService_NoTransientLoss"));
}

TEST(S2ModelTest, LostAttachCompleteLeadsToImplicitDetach) {
  // Figure 5(a) exactly: only the loss mechanism enabled.
  S2Model::Config cfg;
  cfg.allow_duplicate = false;
  S2Model m(cfg);
  const auto r = Explore(m, S2Model::Properties());
  const auto* v = r.FindViolation(kPacketServiceOk);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->state.out_of_service);
  // The violating run must contain a loss and a TAU.
  bool saw_loss = false, saw_tau = false;
  for (const auto& a : v->trace) {
    saw_loss |= a.kind == S2Model::Kind::kLoseUplink;
    saw_tau |= a.kind == S2Model::Kind::kUeTriggerTau;
  }
  EXPECT_TRUE(saw_loss);
  EXPECT_TRUE(saw_tau);
}

TEST(S2ModelTest, DuplicateAttachRequestLeadsToDetachOrInterruption) {
  // Figure 5(b) exactly: only the duplication mechanism enabled.
  S2Model::Config cfg;
  cfg.allow_loss = false;
  S2Model m(cfg);
  const auto r = Explore(m, S2Model::Properties());
  // Reject outcome: out of service.
  const auto* oos = r.FindViolation(kPacketServiceOk);
  ASSERT_NE(oos, nullptr);
  bool saw_defer = false;
  for (const auto& a : oos->trace) {
    saw_defer |= a.kind == S2Model::Kind::kDeferUplink;
  }
  EXPECT_TRUE(saw_defer);
  // Accept outcome: bearer torn down while registered.
  const auto* loss = r.FindViolation("PacketService_NoTransientLoss");
  ASSERT_NE(loss, nullptr);
  EXPECT_TRUE(loss->state.service_interrupted);
  EXPECT_FALSE(loss->state.out_of_service);
}

TEST(S2ModelTest, TraceReplayReachesViolation) {
  S2Model m;
  const auto r = Explore(m, S2Model::Properties());
  const auto* v = r.FindViolation(kPacketServiceOk);
  ASSERT_NE(v, nullptr);
  S2Model::State s = m.initial();
  for (const auto& a : v->trace) s = m.apply(s, a);
  EXPECT_TRUE(s == v->state);
}

TEST(S2ModelTest, HappyPathAttachCompletes) {
  S2Model m;
  auto s = m.initial();
  s = m.apply(s, {S2Model::Kind::kUeSendAttach});
  s = m.apply(s, {S2Model::Kind::kDeliverUplink});
  EXPECT_EQ(s.mme, S2Model::MmeEmm::kWaitComplete);
  s = m.apply(s, {S2Model::Kind::kDeliverDownlink});
  EXPECT_EQ(s.ue, S2Model::UeEmm::kRegistered);
  EXPECT_TRUE(s.ue_bearer);
  s = m.apply(s, {S2Model::Kind::kDeliverUplink});  // Attach Complete
  EXPECT_EQ(s.mme, S2Model::MmeEmm::kRegistered);
  EXPECT_TRUE(s.mme_bearer);
  // TAU then succeeds.
  s = m.apply(s, {S2Model::Kind::kUeTriggerTau});
  s = m.apply(s, {S2Model::Kind::kDeliverUplink});
  s = m.apply(s, {S2Model::Kind::kDeliverDownlink});
  EXPECT_EQ(s.ue, S2Model::UeEmm::kRegistered);
  EXPECT_FALSE(s.out_of_service);
}

TEST(S2ModelTest, ReliableShimEliminatesAllViolations) {
  S2Model::Config cfg;
  cfg.reliable_shim = true;
  S2Model m(cfg);
  const auto r = Explore(m, S2Model::Properties());
  EXPECT_TRUE(r.Holds(kPacketServiceOk));
  EXPECT_TRUE(r.Holds("PacketService_NoTransientLoss"));
  EXPECT_FALSE(r.stats.truncated);
}

TEST(S2ModelTest, ShimDisablesLossAndDeferActions) {
  S2Model::Config cfg;
  cfg.reliable_shim = true;
  S2Model m(cfg);
  auto s = m.initial();
  s = m.apply(s, {S2Model::Kind::kUeSendAttach});
  for (const auto& a : m.enabled(s)) {
    EXPECT_NE(a.kind, S2Model::Kind::kLoseUplink);
    EXPECT_NE(a.kind, S2Model::Kind::kDeferUplink);
  }
}

TEST(S2ModelTest, MmeWaitCompleteRejectsTauWithImplicitDetach) {
  S2Model m;
  auto s = m.initial();
  s = m.apply(s, {S2Model::Kind::kUeSendAttach});
  s = m.apply(s, {S2Model::Kind::kDeliverUplink});
  s = m.apply(s, {S2Model::Kind::kDeliverDownlink});
  s = m.apply(s, {S2Model::Kind::kLoseUplink});  // Attach Complete lost
  s = m.apply(s, {S2Model::Kind::kUeTriggerTau});
  s = m.apply(s, {S2Model::Kind::kDeliverUplink});
  EXPECT_EQ(s.downlink, S2Model::Msg::kTauRejectImplicitDetach);
  EXPECT_EQ(s.mme, S2Model::MmeEmm::kDeregistered);
  s = m.apply(s, {S2Model::Kind::kDeliverDownlink});
  EXPECT_TRUE(s.out_of_service);
  EXPECT_EQ(s.ue, S2Model::UeEmm::kDetached);
}

TEST(S2ModelTest, StateSpaceIsExhaustable) {
  S2Model m;
  const auto r = Explore(m, S2Model::Properties());
  EXPECT_FALSE(r.stats.truncated);
  EXPECT_LT(r.stats.states_visited, 20'000u);
}

TEST(S2ModelTest, StaleAcceptRebuildsRegistration) {
  S2Model::Config cfg;
  cfg.allow_loss = false;
  S2Model m(cfg);
  auto s = m.initial();
  s = m.apply(s, {S2Model::Kind::kUeSendAttach});
  s = m.apply(s, {S2Model::Kind::kDeferUplink});
  s = m.apply(s, {S2Model::Kind::kUeResendAttach});
  s = m.apply(s, {S2Model::Kind::kDeliverUplink});
  s = m.apply(s, {S2Model::Kind::kDeliverDownlink});
  s = m.apply(s, {S2Model::Kind::kDeliverUplink});  // Attach Complete
  ASSERT_EQ(s.mme, S2Model::MmeEmm::kRegistered);
  ASSERT_EQ(s.deferred, S2Model::Msg::kAttachRequest);
  s = m.apply(s, {S2Model::Kind::kMmeAcceptStaleAttach});
  EXPECT_TRUE(s.service_interrupted);
  EXPECT_FALSE(s.mme_bearer);  // torn down, pending rebuild
  s = m.apply(s, {S2Model::Kind::kDeliverDownlink});
  s = m.apply(s, {S2Model::Kind::kDeliverUplink});  // new Attach Complete
  EXPECT_EQ(s.mme, S2Model::MmeEmm::kRegistered);
  EXPECT_TRUE(s.mme_bearer);
}

}  // namespace
}  // namespace cnv::model
