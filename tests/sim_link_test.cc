#include "sim/link.h"

#include <gtest/gtest.h>

#include "sim/radio.h"

namespace cnv::sim {
namespace {

nas::Message AttachReq() {
  nas::Message m;
  m.kind = nas::MsgKind::kAttachRequest;
  m.protocol = nas::Protocol::kEmm;
  return m;
}

TEST(LinkTest, DeliversAfterDelay) {
  Simulator sim;
  Rng rng(1);
  Link link(sim, rng, {.delay = Millis(30)}, "radio");
  SimTime delivered_at = -1;
  nas::MsgKind kind{};
  link.SetReceiver([&](const nas::Message& m) {
    delivered_at = sim.now();
    kind = m.kind;
  });
  link.Send(AttachReq());
  sim.RunAll();
  EXPECT_EQ(delivered_at, Millis(30));
  EXPECT_EQ(kind, nas::MsgKind::kAttachRequest);
  EXPECT_EQ(link.sent(), 1u);
  EXPECT_EQ(link.delivered(), 1u);
}

TEST(LinkTest, ThrowsWithoutReceiver) {
  Simulator sim;
  Rng rng(1);
  Link link(sim, rng, {}, "radio");
  EXPECT_THROW(link.Send(AttachReq()), std::logic_error);
}

TEST(LinkTest, ReliableLinkIgnoresLossProbability) {
  Simulator sim;
  Rng rng(2);
  Link link(sim, rng, {.delay = Millis(1), .loss_prob = 0.99, .reliable = true},
            "backhaul");
  int got = 0;
  link.SetReceiver([&](const nas::Message&) { ++got; });
  for (int i = 0; i < 100; ++i) link.Send(AttachReq());
  sim.RunAll();
  EXPECT_EQ(got, 100);
  EXPECT_EQ(link.dropped(), 0u);
}

TEST(LinkTest, UnreliableLinkDropsAtConfiguredRate) {
  Simulator sim;
  Rng rng(3);
  Link link(sim, rng,
            {.delay = Millis(1), .loss_prob = 0.3, .reliable = false},
            "radio");
  int got = 0;
  link.SetReceiver([&](const nas::Message&) { ++got; });
  const int n = 5000;
  for (int i = 0; i < n; ++i) link.Send(AttachReq());
  sim.RunAll();
  EXPECT_NEAR(static_cast<double>(link.dropped()) / n, 0.3, 0.03);
  EXPECT_EQ(link.delivered() + link.dropped(), static_cast<std::uint64_t>(n));
}

TEST(LinkTest, ForceDropOverridesReliability) {
  Simulator sim;
  Rng rng(4);
  Link link(sim, rng, {.delay = Millis(1), .reliable = true}, "radio");
  int got = 0;
  link.SetReceiver([&](const nas::Message&) { ++got; });
  link.ForceDropNext(2);
  for (int i = 0; i < 5; ++i) link.Send(AttachReq());
  sim.RunAll();
  EXPECT_EQ(got, 3);
  EXPECT_EQ(link.dropped(), 2u);
}

TEST(LinkTest, DeferNextDelaysExactlyOneMessage) {
  Simulator sim;
  Rng rng(5);
  Link link(sim, rng, {.delay = Millis(10)}, "radio");
  std::vector<SimTime> arrivals;
  link.SetReceiver([&](const nas::Message&) { arrivals.push_back(sim.now()); });
  link.DeferNext(Millis(100));
  link.Send(AttachReq());  // deferred: arrives at 110ms
  link.Send(AttachReq());  // normal: arrives at 10ms
  sim.RunAll();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], Millis(10));
  EXPECT_EQ(arrivals[1], Millis(110));
}

TEST(LinkTest, JitterStaysWithinBound) {
  Simulator sim;
  Rng rng(6);
  Link link(sim, rng, {.delay = Millis(10), .jitter = Millis(5)}, "radio");
  std::vector<SimTime> arrivals;
  SimTime sent_at = 0;
  link.SetReceiver([&](const nas::Message&) { arrivals.push_back(sim.now()); });
  for (int i = 0; i < 200; ++i) {
    sent_at = sim.now();
    link.Send(AttachReq());
    sim.RunAll();
    const SimTime d = arrivals.back() - sent_at;
    EXPECT_GE(d, Millis(10));
    EXPECT_LE(d, Millis(15));
  }
}

TEST(RadioTest, LossGrowsAsSignalWeakens) {
  EXPECT_LT(LossFromRssi(-60), 0.01);
  EXPECT_LT(LossFromRssi(-95), 0.01);  // paper's good-signal range edge
  EXPECT_GT(LossFromRssi(-111), LossFromRssi(-100));
  EXPECT_GT(LossFromRssi(-120), 0.5);
}

TEST(RadioTest, RssiProfileInterpolatesAndClamps) {
  RssiProfile p({{0.0, -60.0}, {10.0, -80.0}});
  EXPECT_DOUBLE_EQ(p.At(-5.0), -60.0);
  EXPECT_DOUBLE_EQ(p.At(0.0), -60.0);
  EXPECT_DOUBLE_EQ(p.At(5.0), -70.0);
  EXPECT_DOUBLE_EQ(p.At(10.0), -80.0);
  EXPECT_DOUBLE_EQ(p.At(99.0), -80.0);
}

TEST(RadioTest, ProfileValidation) {
  EXPECT_THROW(RssiProfile({}), std::invalid_argument);
  EXPECT_THROW(RssiProfile({{5.0, -60.0}, {1.0, -70.0}}),
               std::invalid_argument);
}

TEST(RadioTest, Route1MatchesFigure7Shape) {
  const auto p = Route1Profile();
  EXPECT_DOUBLE_EQ(p.EndMile(), 15.0);
  // The paper reports -73 dBm at 9.5 mi and -87 dBm at 13.2 mi.
  EXPECT_NEAR(p.At(9.5), -73.0, 0.1);
  EXPECT_NEAR(p.At(13.2), -87.0, 0.1);
  // Whole route stays within the good-signal band [-95, -51].
  for (double mile = 0; mile <= 15.0; mile += 0.1) {
    EXPECT_LE(p.At(mile), -51.0);
    EXPECT_GE(p.At(mile), -95.0);
  }
}

}  // namespace
}  // namespace cnv::sim
