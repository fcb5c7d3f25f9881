// Property-based sweeps over the screening models: for every configuration
// cell, structural invariants must hold in EVERY reachable state, and every
// counterexample must replay. The reachable sets are enumerated with the
// explorer itself (a recording property).
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "mck/parallel_explorer.h"
#include "model/s1_model.h"
#include "model/s2_model.h"
#include "model/s3_model.h"
#include "model/s4_model.h"

namespace cnv::model {
namespace {

template <typename M>
std::vector<typename M::State> ReachableStates(const M& m) {
  std::vector<typename M::State> seen;
  mck::PropertySet<typename M::State> collect = {
      {"collect",
       [&seen](const typename M::State& s) {
         seen.push_back(s);
         return true;
       },
       ""}};
  const auto r = mck::Explore(m, collect);
  EXPECT_FALSE(r.stats.truncated);
  return seen;
}

// ------------------------------------------------------------------- S1 --

class S1Sweep : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {
 protected:
  S1Model MakeModel() const {
    S1Model::Config cfg;
    cfg.fix_keep_context = std::get<0>(GetParam());
    cfg.fix_reactivate_bearer = std::get<1>(GetParam());
    cfg.allow_user_data_toggle = std::get<2>(GetParam());
    return S1Model(cfg);
  }
};

TEST_P(S1Sweep, StructuralInvariantsHoldEverywhere) {
  const auto m = MakeModel();
  for (const auto& s : ReachableStates(m)) {
    // The contexts are translations of each other: never both active.
    EXPECT_FALSE(s.eps_active && s.pdp_active);
    // An EPS bearer context only exists while camped on 4G.
    if (s.eps_active) {
      EXPECT_EQ(s.serving, S1Model::Sys::k4G);
    }
    // A PDP context only exists while camped on 3G.
    if (s.pdp_active) {
      EXPECT_EQ(s.serving, S1Model::Sys::k3G);
    }
    // Out of service means deregistered everywhere.
    if (s.out_of_service) {
      EXPECT_FALSE(s.emm_registered);
      EXPECT_FALSE(s.gmm_registered);
      EXPECT_FALSE(s.eps_active);
    }
  }
}

TEST_P(S1Sweep, CounterexamplesAlwaysReplay) {
  const auto m = MakeModel();
  const auto r = mck::Explore(m, S1Model::Properties());
  for (const auto& v : r.violations) {
    auto s = m.initial();
    for (const auto& a : v.trace) s = m.apply(s, a);
    EXPECT_TRUE(s == v.state);
  }
}

TEST_P(S1Sweep, ReactivateBearerFixDecidesTheProperty) {
  const auto m = MakeModel();
  const auto r = mck::Explore(m, S1Model::Properties());
  if (std::get<1>(GetParam())) {
    EXPECT_TRUE(r.Holds(kPacketServiceOk));
  } else {
    // Without the reactivation remedy, unavoidable deactivation causes
    // always leave a detach path regardless of the other knobs.
    EXPECT_FALSE(r.Holds(kPacketServiceOk));
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, S1Sweep,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

// ------------------------------------------------------------------- S2 --

class S2Sweep : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {
 protected:
  S2Model MakeModel() const {
    S2Model::Config cfg;
    cfg.reliable_shim = std::get<0>(GetParam());
    cfg.allow_loss = std::get<1>(GetParam());
    cfg.allow_duplicate = std::get<2>(GetParam());
    return S2Model(cfg);
  }
};

TEST_P(S2Sweep, StructuralInvariantsHoldEverywhere) {
  const auto m = MakeModel();
  for (const auto& s : ReachableStates(m)) {
    // The MME only holds a bearer for a completed registration.
    if (s.mme_bearer) {
      EXPECT_EQ(s.mme, S2Model::MmeEmm::kRegistered);
    }
    // A detached UE is out of service and has no bearer.
    if (s.ue == S2Model::UeEmm::kDetached) {
      EXPECT_TRUE(s.out_of_service);
      EXPECT_FALSE(s.ue_bearer);
    }
    // Only Attach Requests are ever deferred by a loaded BS.
    EXPECT_TRUE(s.deferred == S2Model::Msg::kNone ||
                s.deferred == S2Model::Msg::kAttachRequest);
    // The UE never sends more attach requests than the retry budget.
    EXPECT_LE(s.attach_sends, 2);
  }
}

TEST_P(S2Sweep, ShimDecidesBothProperties) {
  const auto m = MakeModel();
  const auto r = mck::Explore(m, S2Model::Properties());
  const bool shim = std::get<0>(GetParam());
  const bool loss = std::get<1>(GetParam());
  const bool dup = std::get<2>(GetParam());
  if (shim || (!loss && !dup)) {
    EXPECT_TRUE(r.Holds(kPacketServiceOk));
    EXPECT_TRUE(r.Holds("PacketService_NoTransientLoss"));
  } else {
    EXPECT_FALSE(r.Holds(kPacketServiceOk));
  }
  // The transient-teardown path needs the duplicate mechanism.
  if (!dup || shim) {
    EXPECT_TRUE(r.Holds("PacketService_NoTransientLoss"));
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, S2Sweep,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

// ------------------------------------------------------------------- S3 --

class S3Sweep
    : public ::testing::TestWithParam<std::tuple<SwitchPolicy, bool>> {
 protected:
  S3Model MakeModel() const {
    S3Model::Config cfg;
    cfg.policy = std::get<0>(GetParam());
    cfg.fix_csfb_tag = std::get<1>(GetParam());
    return S3Model(cfg);
  }
};

TEST_P(S3Sweep, StructuralInvariantsHoldEverywhere) {
  const auto m = MakeModel();
  for (const auto& s : ReachableStates(m)) {
    // A call exists only while fallen back to 3G.
    if (s.call != S3Model::Call::kNone) {
      EXPECT_EQ(s.serving, S3Model::Sys::k3G);
    }
    // Camped on 4G: the 3G radio is idle.
    if (s.serving == S3Model::Sys::k4G) {
      EXPECT_EQ(s.rrc3g, Rrc3g::kIdle);
    }
    // An active call always holds DCH.
    if (s.call == S3Model::Call::kActive) {
      EXPECT_EQ(s.rrc3g, Rrc3g::kDch);
    }
    // The stuck condition requires ongoing data.
    if (m.StuckIn3g(s)) {
      EXPECT_NE(s.data, DataRate::kNone);
      EXPECT_EQ(std::get<0>(GetParam()), SwitchPolicy::kCellReselection);
      EXPECT_FALSE(std::get<1>(GetParam()));
    }
  }
}

TEST_P(S3Sweep, OnlyUnfixedCellReselectionViolatesMmOk) {
  const auto m = MakeModel();
  const auto r = mck::Explore(m, m.Properties());
  const bool expect_violation =
      std::get<0>(GetParam()) == SwitchPolicy::kCellReselection &&
      !std::get<1>(GetParam());
  EXPECT_EQ(!r.Holds(kMmOk), expect_violation);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, S3Sweep,
    ::testing::Combine(::testing::Values(SwitchPolicy::kReleaseWithRedirect,
                                         SwitchPolicy::kHandover,
                                         SwitchPolicy::kCellReselection),
                       ::testing::Bool()));

// ------------------------------------------------------------------- S4 --

class S4Sweep : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {
 protected:
  S4Model MakeModel() const {
    S4Model::Config cfg;
    cfg.decoupled = std::get<0>(GetParam());
    cfg.model_cs = std::get<1>(GetParam());
    cfg.model_ps = std::get<2>(GetParam());
    return S4Model(cfg);
  }
};

TEST_P(S4Sweep, StructuralInvariantsHoldEverywhere) {
  const auto m = MakeModel();
  for (const auto& s : ReachableStates(m)) {
    EXPECT_FALSE(s.call_pending && s.call_active);
    EXPECT_FALSE(s.data_pending && s.data_active);
    // HOL blocking flags can only arise in the coupled design.
    if (std::get<0>(GetParam())) {
      EXPECT_FALSE(s.call_delayed);
      EXPECT_FALSE(s.call_rejected);
      EXPECT_FALSE(s.data_delayed);
    }
    // Domain isolation: no CS activity when CS is not modeled, etc.
    if (!std::get<1>(GetParam())) {
      EXPECT_FALSE(s.call_pending || s.call_active || s.call_delayed);
    }
    if (!std::get<2>(GetParam())) {
      EXPECT_FALSE(s.data_pending || s.data_active || s.data_delayed);
    }
  }
}

TEST_P(S4Sweep, DecouplingDecidesTheProperties) {
  const auto m = MakeModel();
  const auto r = mck::Explore(m, S4Model::Properties());
  const bool decoupled = std::get<0>(GetParam());
  const bool cs = std::get<1>(GetParam());
  const bool ps = std::get<2>(GetParam());
  EXPECT_EQ(!r.Holds(kCallServiceOk), !decoupled && cs);
  EXPECT_EQ(!r.Holds(kPacketServiceOk), !decoupled && ps);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, S4Sweep,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

}  // namespace
}  // namespace cnv::model
