// Storm-generator unit tests: deterministic bursts, injected accounting,
// trace markers, state safety of the adversarial corpus, and the legacy
// core's tally checked against the per-step path it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "stack/testbed.h"
#include "trace/qxdm.h"
#include "util/rng.h"

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

// --- Tally vs. stepped differential ---------------------------------------
//
// A background burst on a kOff element is tallied in closed form. The
// oracle is the per-step path the tally replaced, kept here: the burst's
// start marker, then a ScheduleSeries that hands each synthetic message to
// the element's OnUplink. Seeded scripts drive both paths through the same
// calls, and every read must agree.

enum class Burst { kMassAttach, kTaPingPong, kPagingFlood };

// The oracle: one stepped burst, and the count of messages it injected.
class SteppedStorm {
 public:
  explicit SteppedStorm(Testbed& tb) : tb_(tb) {}

  void Offer(Burst kind, SimTime start, std::size_t count,
             SimDuration spacing) {
    if (count == 0) return;
    const bool to_msc = kind == Burst::kPagingFlood;
    const std::string what =
        kind == Burst::kMassAttach   ? "Mass attach storm begins"
        : kind == Burst::kTaPingPong ? "TA ping-pong burst begins"
                                     : "Paging flood begins";
    tb_.sim().ScheduleAt(start, [this, to_msc, what, count, spacing] {
      tb_.traces().Event(to_msc ? nas::System::k3G : nas::System::k4G,
                         "STORM",
                         what + " (count=" + std::to_string(count) +
                             " spacing=" + FormatDuration(spacing) + ")");
    });
    const std::uint64_t first_imsi = next_imsi_;
    next_imsi_ += count;
    tb_.sim().ScheduleSeries(
        start, count, spacing, [this, kind, first_imsi](std::size_t i) {
          nas::Message m;
          m.imsi = nas::Imsi{first_imsi + i};
          m.synthetic = true;
          switch (kind) {
            case Burst::kMassAttach:
              m.kind = nas::MsgKind::kAttachRequest;
              m.protocol = nas::Protocol::kEmm;
              break;
            case Burst::kTaPingPong:
              m.kind = nas::MsgKind::kTauRequest;
              m.protocol = nas::Protocol::kEmm;
              m.tai.tac = (i % 2 == 0) ? 0x0101 : 0x0102;
              break;
            case Burst::kPagingFlood:
              m.kind = nas::MsgKind::kPagingResponse;
              m.protocol = nas::Protocol::kMm;
              break;
          }
          ++injected_;
          if (kind == Burst::kPagingFlood) {
            tb_.msc().OnUplink(m);
          } else {
            tb_.mme().OnUplink(m);
          }
        });
  }

  std::uint64_t injected() const { return injected_; }

 private:
  Testbed& tb_;
  std::uint64_t injected_ = 0;
  std::uint64_t next_imsi_ = 901'000'000'000'001ULL;
};

// One path under test: how a burst is offered and how injected() reads.
struct StormPath {
  std::function<void(Testbed&, Burst, SimTime, std::size_t, SimDuration)>
      offer;
  std::function<std::uint64_t(Testbed&)> injected;
};

std::string Describe(const OverloadStats& s) {
  return "admitted=" + std::to_string(s.admitted) +
         " rejected=" + std::to_string(s.rejected_congestion) +
         " shed=" + std::to_string(s.shed) +
         " served=" + std::to_string(s.background_served) +
         " integrity=" + std::to_string(s.integrity_rejected) +
         " replay=" + std::to_string(s.replay_dropped) +
         " peak=" + std::to_string(s.queue_peak);
}

// Everything a read may observe of the storm and the kernel, as text.
std::string Read(Testbed& tb, const StormPath& path, const char* where) {
  const sim::Simulator& sim = tb.sim();
  return std::string(where) + " @" + std::to_string(sim.now()) +
         " mme[" + Describe(tb.mme().overload_stats()) + " buffered=" +
         std::to_string(tb.mme().queued_while_down()) + "] msc[" +
         Describe(tb.msc().overload_stats()) + " buffered=" +
         std::to_string(tb.msc().queued_while_down()) + "] sgsn[" +
         Describe(tb.sgsn().overload_stats()) + "] injected=" +
         std::to_string(path.injected(tb)) + " pending=" +
         std::to_string(sim.PendingEvents()) + " peak=" +
         std::to_string(sim.PeakQueueDepth()) + " slots=" +
         std::to_string(sim.HandlerSlots());
}

// Runs one seeded script on a fresh testbed and returns every read, then
// the trace log. The script only draws from its own generator, never from
// the testbed, so both paths see the same calls at the same keys.
std::vector<std::string> RunScript(std::uint64_t seed, bool queue_and_replay,
                                   const StormPath& path) {
  Testbed tb({.profile = OpI(),
              .solutions = {},
              .seed = seed,
              .radio_loss = 0.0,
              .robust = queue_and_replay});
  Rng rng(seed * 7919 + (queue_and_replay ? 1 : 0));
  std::vector<std::string> reads;
  const auto read = [&tb, &path, &reads](const char* where) {
    reads.push_back(Read(tb, path, where));
  };
  if (seed % 2 == 1) {
    // Foreground signalling interleaves with the storm and with replay.
    tb.sim().ScheduleAt(0, [&tb] { tb.ue().PowerOn(nas::System::k4G); });
  }
  for (int round = 0; round < 6; ++round) {
    const SimTime now = tb.sim().now();
    const auto kind = static_cast<Burst>(rng.UniformInt(0, 2));
    const std::int64_t size_pick = rng.UniformInt(0, 3);
    const std::size_t count =
        size_pick == 0   ? 0
        : size_pick == 1 ? 1
                         : static_cast<std::size_t>(rng.UniformInt(2, 400));
    const SimDuration spacing =
        rng.Bernoulli(0.2) ? 0 : rng.UniformInt(1, 4000) * kMicrosecond;
    // Half the bursts start right now, the rest a little later.
    const SimTime start =
        now + (rng.Bernoulli(0.5) ? 0 : Millis(rng.UniformInt(1, 40)));
    const SimTime span =
        static_cast<SimDuration>(count == 0 ? 0 : count - 1) * spacing;
    // A random step instant of this burst (its start when it is empty).
    const auto step_instant = [&] {
      const std::int64_t last =
          count == 0 ? 0 : static_cast<std::int64_t>(count - 1);
      return start + rng.UniformInt(0, last) * spacing;
    };

    // Reads and availability changes queued before the burst exists run
    // ahead of the steps at their instant.
    for (int i = rng.UniformInt(0, 3); i > 0; --i) {
      tb.sim().ScheduleAt(step_instant(), [read] { read("before"); });
    }
    if (rng.Bernoulli(0.5)) {
      CoreElement* element =
          rng.Bernoulli(0.5) ? static_cast<CoreElement*>(&tb.mme())
                             : static_cast<CoreElement*>(&tb.msc());
      const SimTime down = step_instant();
      const SimTime up = std::max(down, step_instant()) +
                         (rng.Bernoulli(0.5) ? 0 : Millis(3));
      const bool lose_state = rng.Bernoulli(0.5);
      tb.sim().ScheduleAt(down, [element, read] {
        element->BeginOutage();
        read("outage");
      });
      tb.sim().ScheduleAt(up, [element, lose_state, read] {
        element->Restart(lose_state);
        read("restart");
      });
    }

    // The burst itself: offered now, outside any event, or from an event
    // at its start, as the fault injector does.
    if (rng.Bernoulli(0.5)) {
      path.offer(tb, kind, start, count, spacing);
      read("offered between runs");
    } else {
      tb.sim().ScheduleAt(start, [&tb, &path, kind, count, spacing, read] {
        path.offer(tb, kind, tb.sim().now(), count, spacing);
        read("offered");
      });
    }
    // A second burst on the same instants now and then.
    if (rng.Bernoulli(0.3)) {
      path.offer(tb, static_cast<Burst>(rng.UniformInt(0, 2)), start,
                 count, spacing);
    }

    // Reads queued after the burst exists run behind the steps at their
    // instant.
    for (int i = rng.UniformInt(0, 3); i > 0; --i) {
      tb.sim().ScheduleAt(step_instant(), [read] { read("after"); });
    }

    // Stop at the burst's last instant, or short of, inside or past it,
    // and read between runs.
    tb.sim().RunUntil(start + (rng.Bernoulli(0.3)
                                   ? span
                                   : rng.UniformInt(0, span + Millis(10))));
    read("between runs");
  }
  tb.sim().RunUntil(tb.sim().now() + Seconds(5));
  read("end");
  reads.push_back(trace::FormatLog(tb.traces().records()));
  return reads;
}

StormPath TalliedPath() {
  return {
      .offer =
          [](Testbed& tb, Burst kind, SimTime start, std::size_t count,
             SimDuration spacing) {
            switch (kind) {
              case Burst::kMassAttach:
                tb.storm().MassAttach(start, count, spacing);
                break;
              case Burst::kTaPingPong:
                tb.storm().TaPingPong(start, count, spacing);
                break;
              case Burst::kPagingFlood:
                tb.storm().PagingFlood(start, count, spacing);
                break;
            }
          },
      .injected = [](Testbed& tb) { return tb.storm().injected(); },
  };
}

// The oracle's state lives beside the testbed it steps, one per run.
StormPath SteppedPath(std::unique_ptr<SteppedStorm>& oracle) {
  return {
      .offer =
          [&oracle](Testbed& tb, Burst kind, SimTime start,
                    std::size_t count, SimDuration spacing) {
            if (!oracle) oracle = std::make_unique<SteppedStorm>(tb);
            oracle->Offer(kind, start, count, spacing);
          },
      .injected =
          [&oracle](Testbed&) {
            return oracle ? oracle->injected() : std::uint64_t{0};
          },
  };
}

TEST(StormTallyTest, MatchesTheSteppedPathAtEveryRead) {
  std::size_t reads_checked = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (const bool queue_and_replay : {false, true}) {
      const std::vector<std::string> tallied =
          RunScript(seed, queue_and_replay, TalliedPath());
      std::unique_ptr<SteppedStorm> oracle;
      const std::vector<std::string> stepped =
          RunScript(seed, queue_and_replay, SteppedPath(oracle));
      ASSERT_EQ(tallied.size(), stepped.size())
          << "seed " << seed << " replay " << queue_and_replay;
      for (std::size_t i = 0; i < tallied.size(); ++i) {
        ASSERT_EQ(tallied[i], stepped[i])
            << "seed " << seed << " replay " << queue_and_replay
            << " read " << i;
      }
      reads_checked += tallied.size();
    }
  }
  EXPECT_GT(reads_checked, 1000u);
}

// A tallied burst runs one event, at its last step; the stepped one ran
// one per step.
TEST(StormTallyTest, ABurstOnTheLegacyCoreIsOneEvent) {
  Testbed tb({.profile = OpI(), .solutions = {}, .seed = 7});
  tb.storm().MassAttach(Millis(10), 1'000, Millis(1));
  tb.Run(Seconds(2));
  EXPECT_EQ(tb.mme().overload_stats().background_served, 1'000u);
  // The start marker and the burst's last step.
  EXPECT_EQ(tb.sim().ExecutedEvents(), 2u);
}

TEST(StormTallyTest, AdmissionControlKeepsTheStepsAndPolicyIsFixedMidBurst) {
  Testbed tb({.profile = OpI(), .solutions = {}, .seed = 7});
  tb.storm().MassAttach(Millis(10), 100, Millis(1));
  tb.Run(Millis(50));
  OverloadConfig queued;
  queued.policy = AdmissionPolicy::kUnbounded;
  // Half the burst was counted as legacy-core load; it cannot switch now.
  EXPECT_THROW(tb.mme().ConfigureOverload(queued), std::logic_error);
  tb.Run(Seconds(1));
  tb.mme().ConfigureOverload(queued);
  const std::uint64_t executed = tb.sim().ExecutedEvents();
  tb.storm().MassAttach(tb.sim().now(), 100, Millis(1));
  tb.Run(Seconds(2));
  EXPECT_EQ(tb.storm().injected(), 200u);
  EXPECT_EQ(tb.mme().overload_stats().background_served, 200u);
  // Each queued arrival is a step, and each drain is an event too.
  EXPECT_GE(tb.sim().ExecutedEvents() - executed, 200u);
}

}  // namespace
}  // namespace cnv::stack
