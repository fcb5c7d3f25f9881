// End-to-end attach / detach / TAU behaviour of the validation stack.
#include <gtest/gtest.h>

#include "stack/testbed.h"
#include "trace/analyze.h"
#include "trace_count.h"

namespace cnv::stack {
namespace {

TEST(StackAttachTest, PowerOn4gAttachCompletes) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
  EXPECT_TRUE(tb.ue().eps_bearer_active());
  EXPECT_EQ(tb.mme().state(), Mme::EmmState::kRegistered);
  EXPECT_TRUE(tb.mme().bearer_active());
}

TEST(StackAttachTest, AttachTraceHasPaperSequence) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  const auto& rec = tb.traces().records();
  const auto t_req = trace::TimeOfFirst(rec, "Attach Request sent");
  const auto t_acc = trace::TimeOfFirst(rec, "Attach Accept received");
  const auto t_cmp = trace::TimeOfFirst(rec, "Attach Complete sent");
  ASSERT_TRUE(t_req && t_acc && t_cmp);
  EXPECT_LT(*t_req, *t_acc);
  EXPECT_LE(*t_acc, *t_cmp);  // Complete is sent in the same handling step
  EXPECT_EQ(trace::CountContaining(rec, "EMM-REGISTERED"), 1u);
  EXPECT_EQ(trace::CountContaining(rec, "EPS bearer context activated"), 1u);
}

TEST(StackAttachTest, AttachRetransmitsUnderLossAndSucceeds) {
  TestbedConfig cfg;
  cfg.radio_loss = 0.5;
  cfg.seed = 3;
  Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Minutes(3));
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
  EXPECT_GE(tb.ue().attach_attempts_total(), 1u);
}

TEST(StackAttachTest, PowerOffSendsDetach) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  tb.ue().PowerOff();
  tb.Run(Seconds(1));
  EXPECT_EQ(tb.mme().state(), Mme::EmmState::kDeregistered);
  EXPECT_EQ(tb.ue().serving(), nas::System::kNone);
}

TEST(StackAttachTest, TauAfterAreaCrossingSucceeds) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  tb.ue().CrossAreaBoundary();
  tb.Run(Seconds(2));
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
  EXPECT_EQ(trace::CountContaining(tb.traces().records(),
                                   "Tracking Area Update Accept"),
            1u);
}

TEST(StackAttachTest, PowerOn3gRegistersBothDomains) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(10));
  EXPECT_TRUE(tb.msc().registered());
  EXPECT_TRUE(tb.sgsn().registered());
  const auto& rec = tb.traces().records();
  EXPECT_GE(trace::CountContaining(rec, "Location Updating Accept"), 1u);
  EXPECT_GE(trace::CountContaining(rec, "GPRS Attach Accept"), 1u);
}

TEST(StackAttachTest, DataSessionIn3gActivatesPdp) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(10));
  tb.ue().StartDataSession(1.0);
  tb.Run(Seconds(2));
  EXPECT_TRUE(tb.ue().pdp_active());
  EXPECT_TRUE(tb.sgsn().pdp_active());
  EXPECT_EQ(tb.ue().rrc3g(), model::Rrc3g::kDch);  // 1 Mbps holds DCH
}

TEST(StackAttachTest, LowRateDataHoldsFach) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(10));
  tb.ue().StartDataSession(0.05);
  tb.Run(Seconds(30));
  EXPECT_EQ(tb.ue().rrc3g(), model::Rrc3g::kFach);
}

TEST(StackAttachTest, Rrc3gDecaysToIdleWithoutTraffic) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(10));
  tb.ue().StartDataSession(1.0);
  tb.Run(Seconds(5));
  tb.ue().StopDataSession();
  tb.Run(Seconds(30));  // DCH -5s-> FACH -12s-> IDLE
  EXPECT_EQ(tb.ue().rrc3g(), model::Rrc3g::kIdle);
}

TEST(StackAttachTest, ShimLayerCarriesAttachTraffic) {
  TestbedConfig cfg;
  cfg.solutions.shim_layer = true;
  Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
  EXPECT_EQ(tb.mme().state(), Mme::EmmState::kRegistered);
  ASSERT_NE(tb.ue_shim(), nullptr);
  EXPECT_GE(tb.ue_shim()->delivered(), 1u);  // downlink NAS went through it
}

TEST(StackAttachTest, CurrentRateReflectsServingSystem) {
  Testbed tb({});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(2));
  EXPECT_GT(tb.ue().CurrentPsRateMbps(sim::Direction::kDownlink, 12), 5.0);
  tb.ue().SwitchTo3g(model::SwitchReason::kMobility);
  tb.Run(Seconds(10));
  tb.ue().StartDataSession(10.0);
  tb.Run(Seconds(2));
  const double r3g = tb.ue().CurrentPsRateMbps(sim::Direction::kDownlink, 12);
  EXPECT_GT(r3g, 2.0);
  EXPECT_LT(r3g, 21.1);
}

}  // namespace
}  // namespace cnv::stack
