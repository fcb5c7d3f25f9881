#include "model/s1_model.h"

#include <gtest/gtest.h>

#include "mck/parallel_explorer.h"

namespace cnv::model {
namespace {

using mck::Explore;
using mck::ExploreOptions;

TEST(S1ModelTest, DefectiveDesignViolatesPacketServiceOk) {
  S1Model m;
  const auto r = Explore(m, S1Model::Properties());
  ASSERT_FALSE(r.Holds(kPacketServiceOk));
  const auto* v = r.FindViolation(kPacketServiceOk);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->state.out_of_service);
  EXPECT_FALSE(v->state.user_initiated_detach);
}

TEST(S1ModelTest, ShortestCounterexampleIsSwitchDeactivateSwitch) {
  S1Model m;
  const auto r = Explore(m, S1Model::Properties());
  const auto* v = r.FindViolation(kPacketServiceOk);
  ASSERT_NE(v, nullptr);
  // BFS: 4G->3G, PDP deactivated (or data off), 3G->4G detach = 3 steps.
  EXPECT_EQ(v->trace.size(), 3u);
  EXPECT_EQ(v->trace.front().kind, S1Model::Kind::kSwitchTo3G);
  EXPECT_EQ(v->trace.back().kind, S1Model::Kind::kSwitchTo4G);
}

TEST(S1ModelTest, TraceReplayReproducesOutOfService) {
  S1Model m;
  const auto r = Explore(m, S1Model::Properties());
  const auto* v = r.FindViolation(kPacketServiceOk);
  ASSERT_NE(v, nullptr);
  S1Model::State s = m.initial();
  for (const auto& a : v->trace) s = m.apply(s, a);
  EXPECT_TRUE(s == v->state);
}

TEST(S1ModelTest, SwitchBackWithActivePdpIsFine) {
  // Manually drive the happy path: switch to 3G with data, no deactivation,
  // switch back: the EPS bearer is reconstructed from the PDP context.
  S1Model m;
  auto s = m.initial();
  s = m.apply(s, {S1Model::Kind::kSwitchTo3G, SwitchReason::kCsfbCall, {}});
  EXPECT_TRUE(s.pdp_active);
  EXPECT_FALSE(s.eps_active);
  s = m.apply(s, {S1Model::Kind::kSwitchTo4G, {}, {}});
  EXPECT_TRUE(s.eps_active);
  EXPECT_TRUE(s.emm_registered);
  EXPECT_FALSE(s.out_of_service);
}

TEST(S1ModelTest, EveryTable3CauseIsExplored) {
  S1Model m;
  auto s = m.initial();
  s = m.apply(s, {S1Model::Kind::kSwitchTo3G, SwitchReason::kMobility, {}});
  const auto actions = m.enabled(s);
  int deact_count = 0;
  for (const auto& a : actions) {
    if (a.kind == S1Model::Kind::kDeactivatePdp) ++deact_count;
  }
  EXPECT_EQ(deact_count, 6);  // all Table 3 causes enumerated
}

TEST(S1ModelTest, ReattachRecoversService) {
  S1Model m;
  auto s = m.initial();
  s = m.apply(s, {S1Model::Kind::kSwitchTo3G, SwitchReason::kMobility, {}});
  s = m.apply(s, {S1Model::Kind::kDeactivatePdp, {},
                  nas::PdpDeactCause::kOperatorDeterminedBarring});
  s = m.apply(s, {S1Model::Kind::kSwitchTo4G, {}, {}});
  ASSERT_TRUE(s.out_of_service);
  const auto actions = m.enabled(s);
  ASSERT_EQ(actions.size(), 1u);  // only recovery is possible while detached
  EXPECT_EQ(actions[0].kind, S1Model::Kind::kReattach);
  s = m.apply(s, actions[0]);
  EXPECT_FALSE(s.out_of_service);
  EXPECT_TRUE(s.emm_registered);
}

TEST(S1ModelTest, KeepContextFixAloneStillViolates) {
  // Unavoidable causes (e.g. operator barring) still delete the context, so
  // the keep-context remedy alone cannot prevent the detach (§5.1.2).
  S1Model::Config cfg;
  cfg.fix_keep_context = true;
  S1Model m(cfg);
  const auto r = Explore(m, S1Model::Properties());
  EXPECT_FALSE(r.Holds(kPacketServiceOk));
}

TEST(S1ModelTest, ReactivateBearerFixAloneIsSufficient) {
  S1Model::Config cfg;
  cfg.fix_reactivate_bearer = true;
  S1Model m(cfg);
  const auto r = Explore(m, S1Model::Properties());
  EXPECT_TRUE(r.Holds(kPacketServiceOk));
  EXPECT_GT(r.stats.states_visited, 5u);
}

TEST(S1ModelTest, BothFixesAreViolationFree) {
  S1Model::Config cfg;
  cfg.fix_keep_context = true;
  cfg.fix_reactivate_bearer = true;
  S1Model m(cfg);
  const auto r = Explore(m, S1Model::Properties());
  EXPECT_TRUE(r.Holds(kPacketServiceOk));
}

TEST(S1ModelTest, UserDataToggleVariantAlsoDetaches) {
  // The WiFi/mobile-data-off variant (§5.1.3): disabling data deactivates
  // the PDP contexts and the later 3G->4G switch detaches the device.
  S1Model::Config cfg;
  S1Model m(cfg);
  auto s = m.initial();
  s = m.apply(s, {S1Model::Kind::kSwitchTo3G, SwitchReason::kMobility, {}});
  s = m.apply(s, {S1Model::Kind::kUserDataOff, {}, {}});
  s = m.apply(s, {S1Model::Kind::kSwitchTo4G, {}, {}});
  EXPECT_TRUE(s.out_of_service);
  // The user asked to stop *data*, never to be deregistered.
  EXPECT_FALSE(s.user_initiated_detach);
}

TEST(S1ModelTest, WithoutDataToggleStillViolatesViaNetworkCauses) {
  S1Model::Config cfg;
  cfg.allow_user_data_toggle = false;
  S1Model m(cfg);
  const auto r = Explore(m, S1Model::Properties());
  EXPECT_FALSE(r.Holds(kPacketServiceOk));
}

TEST(S1ModelTest, StateSpaceIsSmallAndExhaustable) {
  S1Model m;
  const auto r = Explore(m, S1Model::Properties());
  EXPECT_FALSE(r.stats.truncated);
  EXPECT_LT(r.stats.states_visited, 2000u);
}

TEST(S1ModelTest, DescribeMentionsCause) {
  S1Model m;
  const auto text = m.describe(
      {S1Model::Kind::kDeactivatePdp, {}, nas::PdpDeactCause::kQosNotAccepted});
  EXPECT_NE(text.find("QoS not accepted"), std::string::npos);
}

}  // namespace
}  // namespace cnv::model
