// Validation-phase reproduction of findings S1 (unprotected shared context)
// and S2 (out-of-sequenced signaling) on the simulated testbed.
#include <gtest/gtest.h>

#include <functional>

#include "stack/testbed.h"
#include "trace_count.h"

namespace cnv::stack {
namespace {

void RunUntil(Testbed& tb, const std::function<bool()>& pred,
              SimDuration limit) {
  const SimTime deadline = tb.sim().now() + limit;
  while (!pred() && tb.sim().now() < deadline) {
    tb.Run(Millis(100));
  }
}

// Drives the device into 3G with mobile data on and the PDP context
// deactivated by the network — the S1 precondition.
void SetupS1Precondition(Testbed& tb) {
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  ASSERT_TRUE(tb.ue().eps_bearer_active());
  tb.ue().SwitchTo3g(model::SwitchReason::kMobility);
  tb.Run(Seconds(10));
  ASSERT_TRUE(tb.ue().pdp_active());
  ASSERT_TRUE(tb.sgsn().pdp_active());
  tb.sgsn().DeactivatePdp(nas::PdpDeactCause::kOperatorDeterminedBarring);
  tb.Run(Seconds(1));
  ASSERT_FALSE(tb.ue().pdp_active());
}

TEST(StackS1Test, ContextMigratesAcrossSwitches) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  tb.ue().SwitchTo3g(model::SwitchReason::kMobility);
  tb.Run(Seconds(10));
  // EPS bearer -> PDP: alive in 3G, 4G reservation released.
  EXPECT_TRUE(tb.ue().pdp_active());
  EXPECT_FALSE(tb.mme().bearer_active());
  tb.ue().SwitchTo4g();
  tb.Run(Seconds(2));
  // PDP -> EPS bearer: service continues, no detach.
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
  EXPECT_TRUE(tb.ue().eps_bearer_active());
  EXPECT_EQ(tb.ue().oos_events(), 0u);
}

TEST(StackS1Test, MissingPdpContextCausesDetachOnReturnTo4g) {
  Testbed tb({});
  SetupS1Precondition(tb);
  tb.ue().SwitchTo4g();
  RunUntil(tb, [&] { return tb.ue().out_of_service(); }, Seconds(5));
  EXPECT_TRUE(tb.ue().out_of_service());
  EXPECT_EQ(tb.ue().oos_events(), 1u);
  EXPECT_GE(trace::CountContaining(tb.traces().records(),
                                   "no EPS bearer context activated"),
            1u);
}

TEST(StackS1Test, RecoveryTimeIsOperatorControlled) {
  Testbed tb({});
  SetupS1Precondition(tb);
  tb.ue().SwitchTo4g();
  RunUntil(tb, [&] { return tb.ue().recovery_seconds().Count() == 1; },
           Minutes(2));
  ASSERT_EQ(tb.ue().recovery_seconds().Count(), 1u);
  const double r = tb.ue().recovery_seconds().Values()[0];
  // Figure 4: 2.4 s - 24.7 s.
  EXPECT_GE(r, 2.0);
  EXPECT_LE(r, 26.0);
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
}

TEST(StackS1Test, UserDataOffVariantAlsoDetaches) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  tb.ue().SwitchTo3g(model::SwitchReason::kMobility);
  tb.Run(Seconds(10));
  tb.ue().EnableData(false);  // phone deactivates all PDP contexts (§5.1.3)
  tb.Run(Seconds(1));
  // The user later roams back to 4G (e.g. leaving WiFi coverage).
  tb.ue().SwitchTo4g();
  RunUntil(tb, [&] { return tb.ue().out_of_service(); }, Seconds(5));
  EXPECT_TRUE(tb.ue().out_of_service());
}

TEST(StackS1Test, ReactivateBearerRemedyPreventsDetach) {
  TestbedConfig cfg;
  cfg.solutions.reactivate_bearer = true;
  Testbed tb(cfg);
  SetupS1Precondition(tb);
  tb.ue().SwitchTo4g();
  tb.Run(Seconds(5));
  EXPECT_FALSE(tb.ue().out_of_service());
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
  EXPECT_TRUE(tb.ue().eps_bearer_active());
  EXPECT_EQ(tb.mme().bearer_reactivations(), 1u);
  EXPECT_EQ(tb.ue().oos_events(), 0u);
}

TEST(StackS1Test, RemedyMakesSwitchMuchFasterThanRecovery) {
  // §9.3: with the remedy the 3G->4G change takes ~0.1-0.4 s; without it the
  // device re-attaches, taking seconds to tens of seconds.
  TestbedConfig with;
  with.solutions.reactivate_bearer = true;
  Testbed tb_fix(with);
  SetupS1Precondition(tb_fix);
  const SimTime start_fix = tb_fix.sim().now();
  tb_fix.ue().SwitchTo4g();
  RunUntil(tb_fix,
           [&] {
             return tb_fix.ue().emm_state() ==
                    UeDevice::EmmState::kRegistered;
           },
           Minutes(2));
  const double fix_s = ToSeconds(tb_fix.sim().now() - start_fix);

  Testbed tb_bug({});
  SetupS1Precondition(tb_bug);
  const SimTime start_bug = tb_bug.sim().now();
  tb_bug.ue().SwitchTo4g();
  RunUntil(tb_bug,
           [&] { return tb_bug.ue().recovery_seconds().Count() == 1; },
           Minutes(2));
  const double bug_s = ToSeconds(tb_bug.sim().now() - start_bug);

  EXPECT_LT(fix_s, 1.0);
  EXPECT_GT(bug_s, 2.0);
  EXPECT_GT(bug_s / fix_s, 3.0);
}

// ----------------------------------------------------------------- S2 ---

TEST(StackS2Test, LostAttachCompleteCausesImplicitDetachAtNextTau) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k4G);  // Attach Request already sent
  tb.ul4g().ForceDropNext(1);         // ... so this drops Attach Complete
  tb.Run(Seconds(2));
  // Inconsistent EMM states (Figure 5a): UE registered, MME waiting.
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
  EXPECT_EQ(tb.mme().state(), Mme::EmmState::kWaitComplete);

  tb.ue().CrossAreaBoundary();  // tracking area update
  RunUntil(tb, [&] { return tb.ue().oos_events() > 0; }, Seconds(5));
  EXPECT_GE(tb.ue().oos_events(), 1u);
  EXPECT_GE(trace::CountContaining(tb.traces().records(),
                                   "implicitly detached"),
            1u);
}

TEST(StackS2Test, DuplicateAttachRequestRejectedDetachesUe) {
  Testbed tb({});
  tb.mme().set_duplicate_attach_rejects(true);
  // BS1 under heavy load defers the first Attach Request past T3410.
  tb.ul4g().DeferNext(Seconds(16));
  tb.ue().PowerOn(nas::System::k4G);
  RunUntil(tb, [&] { return tb.ue().oos_events() > 0; }, Seconds(30));
  EXPECT_GE(tb.ue().oos_events(), 1u);
  EXPECT_GE(
      trace::CountContaining(tb.traces().records(), "Attach Reject"), 1u);
}

TEST(StackS2Test, DuplicateAttachRequestAcceptedRebuildsBearer) {
  Testbed tb({});
  tb.mme().set_duplicate_attach_rejects(false);
  tb.ul4g().DeferNext(Seconds(16));
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(30));
  // No detach, but the attach ran twice and the bearer was rebuilt.
  EXPECT_EQ(tb.ue().oos_events(), 0u);
  EXPECT_EQ(tb.mme().state(), Mme::EmmState::kRegistered);
  EXPECT_TRUE(tb.mme().bearer_active());
  EXPECT_GE(trace::CountContaining(tb.traces().records(),
                                   "Attach Complete sent"),
            2u);
}

TEST(StackS2Test, ShimLayerPreventsLostCompleteDetach) {
  TestbedConfig cfg;
  cfg.solutions.shim_layer = true;
  Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k4G);
  tb.ul4g().ForceDropNext(1);  // drops the shim frame; it retransmits
  tb.Run(Seconds(2));
  EXPECT_EQ(tb.mme().state(), Mme::EmmState::kRegistered);
  tb.ue().CrossAreaBoundary();
  tb.Run(Seconds(5));
  EXPECT_EQ(tb.ue().oos_events(), 0u);
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
}

TEST(StackS2Test, ShimLayerSurvivesSustainedLoss) {
  TestbedConfig cfg;
  cfg.solutions.shim_layer = true;
  cfg.radio_loss = 0.3;
  cfg.seed = 11;
  Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Minutes(1));
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
  for (int i = 0; i < 5; ++i) {
    tb.ue().CrossAreaBoundary();
    tb.Run(Seconds(20));
  }
  EXPECT_EQ(tb.ue().oos_events(), 0u);
  EXPECT_EQ(tb.mme().state(), Mme::EmmState::kRegistered);
}

}  // namespace
}  // namespace cnv::stack
