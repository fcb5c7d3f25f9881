#include "model/s3_model.h"

#include <gtest/gtest.h>

#include "mck/parallel_explorer.h"

namespace cnv::model {
namespace {

using mck::Explore;

TEST(S3ModelTest, CellReselectionPolicyViolatesMmOk) {
  S3Model m;  // default: cell reselection (the OP-II configuration)
  const auto r = Explore(m, m.Properties());
  ASSERT_FALSE(r.Holds(kMmOk));
  const auto* v = r.FindViolation(kMmOk);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(m.StuckIn3g(v->state));
  EXPECT_EQ(v->state.call, S3Model::Call::kEnded);
  EXPECT_NE(v->state.data, DataRate::kNone);
}

TEST(S3ModelTest, HighRateDataSticksAtDch) {
  S3Model::Config cfg;
  cfg.allow_low_rate = false;  // only the high-rate scenario of this paper
  S3Model m(cfg);
  const auto r = Explore(m, m.Properties());
  const auto* v = r.FindViolation(kMmOk);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->state.rrc3g, Rrc3g::kDch);
  EXPECT_EQ(v->state.data, DataRate::kHigh);
}

TEST(S3ModelTest, LowRateDataAlsoGetsStuck) {
  // The prior-work ([27]) variant: low-rate data pins FACH, still != IDLE.
  S3Model::Config cfg;
  cfg.allow_high_rate = false;
  S3Model m(cfg);
  const auto r = Explore(m, m.Properties());
  const auto* v = r.FindViolation(kMmOk);
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->state.rrc3g, Rrc3g::kIdle);
}

TEST(S3ModelTest, ReleaseWithRedirectDoesNotGetStuck) {
  S3Model::Config cfg;
  cfg.policy = SwitchPolicy::kReleaseWithRedirect;  // the OP-I configuration
  S3Model m(cfg);
  const auto r = Explore(m, m.Properties());
  EXPECT_TRUE(r.Holds(kMmOk));
}

TEST(S3ModelTest, ReleaseWithRedirectDisruptsData) {
  // The OP-I trade-off (§5.3.2): the switch works but the ongoing data
  // session is disrupted.
  S3Model::Config cfg;
  cfg.policy = SwitchPolicy::kReleaseWithRedirect;
  S3Model m(cfg);
  auto s = m.initial();
  s = m.apply(s, {S3Model::Kind::kStartData, DataRate::kHigh});
  s = m.apply(s, {S3Model::Kind::kMakeCsfbCall, {}});
  s = m.apply(s, {S3Model::Kind::kEndCall, {}});
  s = m.apply(s, {S3Model::Kind::kSwitchBackTo4g, {}});
  EXPECT_EQ(s.serving, S3Model::Sys::k4G);
  EXPECT_TRUE(s.data_disrupted);
}

TEST(S3ModelTest, HandoverAvoidsBothProblems) {
  S3Model::Config cfg;
  cfg.policy = SwitchPolicy::kHandover;
  S3Model m(cfg);
  const auto r = Explore(m, m.Properties());
  EXPECT_TRUE(r.Holds(kMmOk));
  auto s = m.initial();
  s = m.apply(s, {S3Model::Kind::kStartData, DataRate::kHigh});
  s = m.apply(s, {S3Model::Kind::kMakeCsfbCall, {}});
  s = m.apply(s, {S3Model::Kind::kEndCall, {}});
  s = m.apply(s, {S3Model::Kind::kSwitchBackTo4g, {}});
  EXPECT_FALSE(s.data_disrupted);
}

TEST(S3ModelTest, CsfbTagFixUnsticksCellReselection) {
  S3Model::Config cfg;
  cfg.policy = SwitchPolicy::kCellReselection;
  cfg.fix_csfb_tag = true;  // §8 domain decoupling remedy
  S3Model m(cfg);
  const auto r = Explore(m, m.Properties());
  EXPECT_TRUE(r.Holds(kMmOk));
}

TEST(S3ModelTest, WithoutDataTheCallEventuallyReturnsTo4g) {
  S3Model m;
  auto s = m.initial();
  s = m.apply(s, {S3Model::Kind::kMakeCsfbCall, {}});
  EXPECT_EQ(s.serving, S3Model::Sys::k3G);
  EXPECT_EQ(s.rrc3g, Rrc3g::kDch);
  s = m.apply(s, {S3Model::Kind::kEndCall, {}});
  EXPECT_FALSE(m.StuckIn3g(s));  // no data: demotion path exists
  s = m.apply(s, {S3Model::Kind::kRrcDemote, {}});
  EXPECT_EQ(s.rrc3g, Rrc3g::kFach);
  s = m.apply(s, {S3Model::Kind::kRrcDemote, {}});
  EXPECT_EQ(s.rrc3g, Rrc3g::kIdle);
  // Now reselection is enabled.
  bool switch_enabled = false;
  for (const auto& a : m.enabled(s)) {
    switch_enabled |= a.kind == S3Model::Kind::kSwitchBackTo4g;
  }
  EXPECT_TRUE(switch_enabled);
  s = m.apply(s, {S3Model::Kind::kSwitchBackTo4g, {}});
  EXPECT_EQ(s.serving, S3Model::Sys::k4G);
}

TEST(S3ModelTest, StuckStateOffersNoSwitchAction) {
  S3Model m;
  auto s = m.initial();
  s = m.apply(s, {S3Model::Kind::kStartData, DataRate::kHigh});
  s = m.apply(s, {S3Model::Kind::kMakeCsfbCall, {}});
  s = m.apply(s, {S3Model::Kind::kEndCall, {}});
  ASSERT_TRUE(m.StuckIn3g(s));
  for (const auto& a : m.enabled(s)) {
    EXPECT_NE(a.kind, S3Model::Kind::kSwitchBackTo4g);
    EXPECT_NE(a.kind, S3Model::Kind::kRrcDemote);  // DCH pinned by data
  }
}

TEST(S3ModelTest, StoppingDataUnsticksTheDevice) {
  S3Model m;
  auto s = m.initial();
  s = m.apply(s, {S3Model::Kind::kStartData, DataRate::kHigh});
  s = m.apply(s, {S3Model::Kind::kMakeCsfbCall, {}});
  s = m.apply(s, {S3Model::Kind::kEndCall, {}});
  s = m.apply(s, {S3Model::Kind::kStopData, {}});
  EXPECT_FALSE(m.StuckIn3g(s));  // the stuck period ends with the session
  s = m.apply(s, {S3Model::Kind::kRrcDemote, {}});
  s = m.apply(s, {S3Model::Kind::kRrcDemote, {}});
  EXPECT_EQ(s.rrc3g, Rrc3g::kIdle);
}

TEST(S3ModelTest, StateSpaceIsExhaustable) {
  S3Model m;
  const auto r = Explore(m, m.Properties());
  EXPECT_FALSE(r.stats.truncated);
  EXPECT_LT(r.stats.states_visited, 5000u);
}

}  // namespace
}  // namespace cnv::model
