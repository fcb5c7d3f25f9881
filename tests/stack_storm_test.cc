// Storm-generator unit tests: deterministic bursts, injected accounting,
// trace markers, and state safety of the adversarial corpus.
#include <gtest/gtest.h>

#include <string>

#include "stack/testbed.h"
#include "trace/qxdm.h"

namespace cnv::stack {
namespace {

std::string RunStormScenario(std::uint64_t seed) {
  TestbedConfig cfg;
  cfg.profile = OpI();
  cfg.seed = seed;
  cfg.overload.policy = AdmissionPolicy::kRejectBackoff;
  cfg.overload.queue_capacity = 4;
  Testbed tb(cfg);
  tb.storm().MassAttach(Millis(10), 200, Millis(2));
  tb.storm().AdversarialNas(Seconds(1), 14, Millis(10));
  tb.sim().ScheduleAt(Millis(50),
                      [&tb] { tb.ue().PowerOn(nas::System::k4G); });
  tb.Run(Seconds(30));
  return trace::FormatLog(tb.traces().records());
}

TEST(StormTest, SameSeedSameStormSameTrace) {
  EXPECT_EQ(RunStormScenario(3), RunStormScenario(3));
}

TEST(StormTest, MassAttachInjectsExactlyCount) {
  Testbed tb({.profile = OpI(), .solutions = {}, .seed = 7});
  tb.storm().MassAttach(Millis(10), 123, Millis(1));
  tb.Run(Seconds(2));
  EXPECT_EQ(tb.storm().injected(), 123u);
  EXPECT_EQ(tb.mme().overload_stats().background_served, 123u);
}

TEST(StormTest, AdversarialReplaySlotsCountTwice) {
  Testbed tb({.profile = OpI(), .solutions = {}, .seed = 7});
  // Corpus slots 3 and 6 of every 7 are replays (two injections each):
  // 7 slots -> 9 messages.
  tb.storm().AdversarialNas(Millis(10), 7, Millis(10));
  tb.Run(Seconds(2));
  EXPECT_EQ(tb.storm().injected(), 9u);
}

TEST(StormTest, LastInjectionAtIsTheLatestBurstSlot) {
  Testbed tb({.profile = OpI(), .solutions = {}, .seed = 7});
  EXPECT_EQ(tb.storm().last_injection_at(), 0);
  tb.storm().MassAttach(Seconds(1), 10, Millis(100));  // ends at 1.9 s
  tb.storm().PagingFlood(Seconds(3), 5, Millis(10));   // ends at 3.04 s
  EXPECT_EQ(tb.storm().last_injection_at(), Seconds(3) + Millis(40));
}

TEST(StormTest, BurstsAnnounceThemselvesInTheTrace) {
  Testbed tb({.profile = OpI(), .solutions = {}, .seed = 7});
  tb.storm().MassAttach(Millis(10), 5, Millis(1));
  tb.storm().TaPingPong(Millis(100), 5, Millis(1));
  tb.storm().PagingFlood(Millis(200), 5, Millis(1));
  tb.storm().AdversarialNas(Millis(300), 2, Millis(1));
  tb.Run(Seconds(1));
  const std::string log = trace::FormatLog(tb.traces().records());
  EXPECT_NE(log.find("Mass attach storm begins"), std::string::npos);
  EXPECT_NE(log.find("TA ping-pong burst begins"), std::string::npos);
  EXPECT_NE(log.find("Paging flood begins"), std::string::npos);
  EXPECT_NE(log.find("Adversarial NAS burst begins"), std::string::npos);
}

TEST(StormTest, AdversarialCorpusIsScreenedWithoutStateCorruption) {
  Testbed tb({.profile = OpI(), .solutions = {}, .seed = 7});
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(5));
  ASSERT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
  ASSERT_EQ(tb.mme().state(), Mme::EmmState::kRegistered);

  tb.storm().AdversarialNas(tb.sim().now() + Millis(10), 70, Millis(5));
  tb.Run(Seconds(10));

  // Every malformed / truncated / wrong-protocol / replayed entry was
  // screened somewhere; none perturbed the registered session.
  std::uint64_t screened = 0;
  for (const OverloadStats* s :
       {&tb.mme().overload_stats(), &tb.msc().overload_stats(),
        &tb.sgsn().overload_stats()}) {
    screened += s->integrity_rejected + s->replay_dropped;
  }
  EXPECT_GT(screened, 0u);
  EXPECT_EQ(tb.ue().emm_state(), UeDevice::EmmState::kRegistered);
  EXPECT_EQ(tb.mme().state(), Mme::EmmState::kRegistered);
  EXPECT_EQ(tb.ue().serving(), nas::System::k4G);
}

TEST(StormTest, TaPingPongAlternatesTrackingAreas) {
  Testbed tb({.profile = OpI(), .solutions = {}, .seed = 7});
  tb.storm().TaPingPong(Millis(10), 50, Millis(1));
  tb.Run(Seconds(2));
  EXPECT_EQ(tb.storm().injected(), 50u);
  EXPECT_EQ(tb.mme().overload_stats().background_served, 50u);
}

}  // namespace
}  // namespace cnv::stack
