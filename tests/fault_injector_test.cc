// FaultInjector: each scheduled action must reach the right testbed hook
// at the right simulation time and leave a FAULT record in the trace log.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "fault/injector.h"
#include "trace/qxdm.h"

namespace cnv::fault {
namespace {

// Counts FAULT records in the testbed's trace log.
std::size_t FaultRecords(stack::Testbed& tb) {
  std::size_t n = 0;
  for (const auto& r : tb.traces().records()) {
    if (r.type == trace::TraceType::kFault) ++n;
  }
  return n;
}

TEST(FaultInjectorTest, DropActionArmsTheTargetLink) {
  stack::Testbed tb({});
  FaultInjector inj(tb);
  inj.Apply({.name = "t",
             .description = "",
             .actions = {{.at = Millis(20),
                         .kind = FaultKind::kDropNext,
                         .target = FaultTarget::kUl4g,
                         .count = 1}}});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(1));
  // The Attach Request (t=0) got through; the Attach Complete was eaten.
  EXPECT_EQ(tb.ul4g().dropped(), 1u);
  EXPECT_EQ(inj.injected(), 1u);
  EXPECT_EQ(FaultRecords(tb), 1u);
}

TEST(FaultInjectorTest, OutageAndRestartReachTheElement) {
  stack::Testbed tb({});
  FaultInjector inj(tb);
  inj.Apply({.name = "t",
             .description = "",
             .actions = {{.at = Seconds(10),
                         .kind = FaultKind::kElementOutage,
                         .target = FaultTarget::kMme},
                        {.at = Seconds(20),
                         .kind = FaultKind::kElementRestart,
                         .target = FaultTarget::kMme,
                         .lose_state = true}}});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(15));
  EXPECT_FALSE(tb.mme().available());
  // The attach completed before the outage; the lossy restart forgets it.
  EXPECT_EQ(tb.mme().state(), stack::Mme::EmmState::kRegistered);
  tb.Run(Seconds(10));
  EXPECT_TRUE(tb.mme().available());
  EXPECT_EQ(tb.mme().state(), stack::Mme::EmmState::kDeregistered);
  EXPECT_EQ(inj.injected(), 2u);
}

TEST(FaultInjectorTest, TimerSkewReachesTheDevice) {
  stack::Testbed tb({});
  FaultInjector inj(tb);
  inj.Apply({.name = "t",
             .description = "",
             .actions = {{.at = Seconds(5),
                         .kind = FaultKind::kTimerSkew,
                         .target = FaultTarget::kUe,
                         .value = 2.5}}});
  tb.Run(Seconds(6));
  EXPECT_DOUBLE_EQ(tb.ue().timer_scale(), 2.5);
}

TEST(FaultInjectorTest, ForceSgsRaceArmsTheMme) {
  stack::Testbed tb({});
  FaultInjector inj(tb);
  inj.Apply({.name = "t",
             .description = "",
             .actions = {{.at = 0,
                         .kind = FaultKind::kForceSgsRace,
                         .target = FaultTarget::kMme}}});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(30));
  // The armed race fires on the next SGs update after a CSFB round trip.
  tb.ue().Dial();
  tb.Run(Seconds(60));
  tb.ue().HangUp();
  tb.Run(Seconds(120));
  EXPECT_EQ(tb.mme().sgs_update_failures(), 1u);
}

TEST(FaultInjectorTest, PastActionsExecuteImmediately) {
  stack::Testbed tb({});
  tb.Run(Seconds(100));  // now > action time
  FaultInjector inj(tb);
  inj.Apply({.name = "t",
             .description = "",
             .actions = {{.at = Seconds(10),
                         .kind = FaultKind::kExtraDelay,
                         .target = FaultTarget::kDl4g,
                         .value = 1.0}}});
  tb.Run(Millis(1));
  EXPECT_EQ(tb.dl4g().extra_delay(), Seconds(1));
}

TEST(FaultInjectorTest, PlansCompose) {
  stack::Testbed tb({});
  FaultInjector inj(tb);
  inj.Apply(plans::RadioBurstLoss());
  inj.Apply(plans::TimerSkew());
  tb.Run(Seconds(20));
  EXPECT_DOUBLE_EQ(tb.ue().timer_scale(), 2.5);
  EXPECT_EQ(inj.injected(), 7u);  // 6 loss settings at 10 s + skew at 0 s
}

TEST(FaultInjectorTest, FaultRecordsRenderInQxdmFormat) {
  stack::Testbed tb({});
  FaultInjector inj(tb);
  inj.Apply(plans::TimerSkew());
  tb.Run(Seconds(1));
  const std::string log = trace::FormatLog(tb.traces().records());
  EXPECT_NE(log.find("[FAULT]"), std::string::npos);
  EXPECT_NE(log.find("timer-skew on UE"), std::string::npos);
}

// A one-action storm plan named "bad-storm".
FaultPlan StormPlan(int count, double spacing_s, SimTime at = Seconds(1)) {
  return {.name = "bad-storm",
          .description = "",
          .actions = {{.at = at,
                       .kind = FaultKind::kStormMassAttach,
                       .target = FaultTarget::kMme,
                       .count = count,
                       .value = spacing_s}}};
}

// Applies `plan` and returns the std::invalid_argument message, or "" when
// Apply accepted it. A rejected plan must schedule nothing.
std::string ApplyError(const FaultPlan& plan) {
  stack::Testbed tb({});
  FaultInjector inj(tb);
  try {
    inj.Apply(plan);
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(tb.sim().PendingEvents(), 0u);
    return e.what();
  }
  return "";
}

TEST(FaultInjectorTest, StormWithNegativeCountIsRejected) {
  const std::string error = ApplyError(StormPlan(-1, 0.002));
  EXPECT_NE(error.find("bad-storm"), std::string::npos) << error;
  EXPECT_NE(error.find("negative storm count"), std::string::npos) << error;
}

TEST(FaultInjectorTest, StormWithNanSpacingIsRejected) {
  const std::string error =
      ApplyError(StormPlan(10, std::numeric_limits<double>::quiet_NaN()));
  EXPECT_NE(error.find("bad-storm"), std::string::npos) << error;
}

TEST(FaultInjectorTest, StormWithInfiniteSpacingIsRejected) {
  const std::string error =
      ApplyError(StormPlan(10, std::numeric_limits<double>::infinity()));
  EXPECT_NE(error.find("bad-storm"), std::string::npos) << error;
}

TEST(FaultInjectorTest, StormWithNegativeSpacingIsRejected) {
  const std::string error = ApplyError(StormPlan(10, -0.002));
  EXPECT_NE(error.find("bad-storm"), std::string::npos) << error;
}

TEST(FaultInjectorTest, StormWithSpacingPastSimTimeIsRejected) {
  // 1e13 s is 1e19 us, past the 2^63 - 1 us SimTime holds.
  const std::string error = ApplyError(StormPlan(2, 1e13));
  EXPECT_NE(error.find("bad-storm"), std::string::npos) << error;
}

TEST(FaultInjectorTest, StormWhoseLastMessageOverflowsTimeIsRejected) {
  // Each spacing fits, but 1,000,000 of 1e7 s do not.
  const std::string error = ApplyError(StormPlan(1'000'001, 1e7));
  EXPECT_NE(error.find("bad-storm"), std::string::npos) << error;
  EXPECT_NE(error.find("overflows"), std::string::npos) << error;
}

TEST(FaultInjectorTest, StormEdgesAreAccepted) {
  EXPECT_EQ(ApplyError(StormPlan(0, 0.0)), "");
  EXPECT_EQ(ApplyError(StormPlan(1, 1e12)), "");  // one message: no stride
  EXPECT_EQ(ApplyError(StormPlan(1'000, 0.0)), "");
}

}  // namespace
}  // namespace cnv::fault
