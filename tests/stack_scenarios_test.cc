#include "stack/scenarios.h"

#include <gtest/gtest.h>

namespace cnv::stack {
namespace {

TEST(ScenariosTest, AttachIn4gSettlesRegistered) {
  Testbed tb({});
  EXPECT_TRUE(scenario::AttachIn4g(tb));
  EXPECT_EQ(tb.mme().state(), Mme::EmmState::kRegistered);
}

TEST(ScenariosTest, AttachIn3gRegistersBothDomains) {
  Testbed tb({});
  EXPECT_TRUE(scenario::AttachIn3g(tb));
  EXPECT_TRUE(tb.msc().registered());
  EXPECT_TRUE(tb.sgsn().registered());
}

TEST(ScenariosTest, RunUntilReportsTimeout) {
  Testbed tb({});
  EXPECT_FALSE(scenario::RunUntil(tb, [] { return false; }, Seconds(1)));
  EXPECT_TRUE(scenario::RunUntil(tb, [] { return true; }, Seconds(1)));
}

TEST(ScenariosTest, EstablishCallWorksIn3g) {
  Testbed tb({});
  ASSERT_TRUE(scenario::AttachIn3g(tb));
  tb.Run(Seconds(10));  // clear MM-WAIT-FOR-NET-CMD
  EXPECT_TRUE(scenario::EstablishCall(tb));
  EXPECT_EQ(tb.ue().call_state(), UeDevice::CallState::kActive);
}

}  // namespace
}  // namespace cnv::stack
