// Queue-discipline suite for the event kernels.
//
// Three parts:
//   1. PendingEvents / cancellation regression — pins the live-event count
//      through every schedule/cancel/fire interleaving that skewed the
//      seed's derived (queue size minus tombstone set) accounting.
//   2. The bare TimerWheel, the city engine's shard queue: tiers, cascades,
//      the overflow calendar, and its pops through PopUntil and DrainUntil
//      against the reference heap (tests/heap_ref.h).
//   3. Differential property tests — randomized schedule / cancel /
//      equal-timestamp / guard-timer workloads replayed through the
//      reference heap kernel and sim::Simulator side by side, asserting
//      identical execution order, clock positions, accounting, and
//      TimerStats.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "heap_ref.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "sim/wheel.h"
#include "util/rng.h"
#include "util/time.h"

namespace cnv::sim {
namespace {

// ---------------------------------------------------------------------------
// PendingEvents accounting through interleavings.

TEST(WheelPendingTest, ScheduleCancelFireInterleavings) {
  Simulator sim;
  EXPECT_EQ(sim.PendingEvents(), 0u);

  auto a = sim.ScheduleAt(10, [] {});
  auto b = sim.ScheduleAt(10, [] {});
  auto c = sim.ScheduleAt(20, [] {});
  EXPECT_EQ(sim.PendingEvents(), 3u);

  sim.Cancel(b);
  EXPECT_EQ(sim.PendingEvents(), 2u);
  sim.Cancel(b);  // idempotent: must not double-decrement
  EXPECT_EQ(sim.PendingEvents(), 2u);

  EXPECT_TRUE(sim.Step());  // fires a
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.Cancel(a);  // already fired: no-op
  EXPECT_EQ(sim.PendingEvents(), 1u);

  sim.Cancel(c);
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

// The seed kernel's PendingEvents drifted when a handler cancelled a
// not-yet-pruned sibling, because the tombstone set and the heap disagreed
// until the next prune. The live counter cannot drift: every transition is
// counted at the moment it happens.
TEST(WheelPendingTest, HandlerCancellingSiblingKeepsCountExact) {
  Simulator sim;
  Simulator::EventId victim = Simulator::kInvalidEvent;
  std::size_t pending_inside = 0;
  sim.ScheduleAt(5, [&] {
    sim.Cancel(victim);
    pending_inside = sim.PendingEvents();
  });
  victim = sim.ScheduleAt(5, [] { FAIL() << "cancelled event fired"; });
  sim.ScheduleAt(7, [] {});
  EXPECT_EQ(sim.PendingEvents(), 3u);
  sim.RunAll();
  // Inside the first handler: it is no longer pending, the victim was just
  // cancelled, only the t=7 event remains.
  EXPECT_EQ(pending_inside, 1u);
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(sim.ExecutedEvents(), 2u);
  EXPECT_EQ(sim.CancelledEvents(), 1u);
}

TEST(WheelPendingTest, CancelledStragglersNeverLingerInCount) {
  Simulator sim;
  std::vector<Simulator::EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sim.ScheduleAt(100 + i, [] {}));
  }
  // Cancel every other event without ever stepping: the queue still holds
  // 1000 entries (500 tombstones), but only 500 are live.
  for (std::size_t i = 0; i < ids.size(); i += 2) sim.Cancel(ids[i]);
  EXPECT_EQ(sim.PendingEvents(), 500u);
  sim.RunAll();
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(sim.ExecutedEvents(), 500u);
  EXPECT_EQ(sim.CancelledEvents(), 500u);
}

TEST(WheelPendingTest, RandomizedCountMatchesShadowLedger) {
  Rng rng(20260808);
  Simulator sim;
  std::vector<Simulator::EventId> open;
  std::size_t live = 0;
  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.Uniform();
    if (roll < 0.5) {
      open.push_back(sim.ScheduleIn(
          static_cast<SimTime>(rng.UniformInt(0, 5000)), [] {}));
      ++live;
    } else if (roll < 0.75 && !open.empty()) {
      const std::size_t k =
          static_cast<std::size_t>(rng.UniformInt(0, open.size() - 1));
      // May already have fired or been cancelled; Cancel must only decrement
      // the count when the event was actually live.
      const auto before = sim.CancelledEvents();
      sim.Cancel(open[k]);
      if (sim.CancelledEvents() != before) --live;
    } else {
      if (sim.Step()) --live;
    }
    ASSERT_EQ(sim.PendingEvents(), live) << "at step " << step;
  }
  sim.RunAll();
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

// ---------------------------------------------------------------------------
// Raw wheel coverage: tiers, cascades, overflow calendar, position jumps.

TEST(TimerWheelTest, PopsAcrossAllTiersInOrder) {
  TimerWheel w;
  // One entry per tier plus two in the overflow calendar. Scheduled in
  // scrambled order; must pop sorted by time.
  const SimTime times[] = {
      200,                        // level 0
      Millis(10),                 // level 0, same tick
      Seconds(100),               // level 0, late slot
      Minutes(30),                // level 1
      Minutes(600),               // level 2
      Minutes(5'000),             // overflow (~83 h), bucket 139
      Minutes(9'000),             // overflow (~150 h), later bucket
  };
  std::uint64_t seq = 1;
  for (int i = 6; i >= 0; --i) w.Schedule(times[i], seq++, 100 + i);
  EXPECT_EQ(w.Size(), 7u);
  EXPECT_GT(w.stats().overflow_inserts, 0u);

  WheelEntry e;
  SimTime prev = -1;
  std::vector<SimTime> popped;
  while (w.PopUntil(std::numeric_limits<SimTime>::max(), &e)) {
    EXPECT_GT(e.time, prev);
    prev = e.time;
    popped.push_back(e.time);
  }
  ASSERT_EQ(popped.size(), 7u);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(popped[i], times[i]);
  EXPECT_TRUE(w.Empty());
  EXPECT_GT(w.stats().cascaded, 0u);
  EXPECT_EQ(w.stats().migrated, 2u);
}

TEST(TimerWheelTest, EqualTimesPopInSeqOrderAcrossCascades) {
  TimerWheel w;
  // Same absolute time reached via different tiers: one direct level-0
  // insert after the position advances, the others cascading down from
  // higher tiers. Seq order must survive.
  const SimTime t = Minutes(10);
  w.Schedule(t, 1, 11);          // level 1 at insert time
  w.Schedule(Millis(1), 2, 12);  // something to advance past first
  WheelEntry e;
  ASSERT_TRUE(w.PopUntil(Millis(1), &e));
  EXPECT_EQ(e.payload, 12u);
  w.Schedule(t, 3, 13);  // same slot, later seq
  w.Schedule(t, 4, 14);
  std::vector<std::uint64_t> order;
  while (w.PopUntil(t, &e)) order.push_back(e.payload);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{11, 13, 14}));
}

TEST(TimerWheelTest, PopUntilLimitIsExact) {
  TimerWheel w;
  w.Schedule(100, 1, 1);
  w.Schedule(101, 2, 2);
  WheelEntry e;
  EXPECT_FALSE(w.PopUntil(99, &e));
  ASSERT_TRUE(w.PopUntil(100, &e));
  EXPECT_EQ(e.time, 100);
  EXPECT_FALSE(w.PopUntil(100, &e));
  ASSERT_TRUE(w.PopUntil(101, &e));
  EXPECT_EQ(e.time, 101);
  EXPECT_TRUE(w.Empty());
}

TEST(TimerWheelTest, SparseFarJumpsSkipEmptyTicks) {
  TimerWheel w;
  // Hours of virtual time with a handful of events: per-tick walking would
  // time out; bitmap jumps make this instant.
  std::uint64_t seq = 1;
  for (int i = 1; i <= 8; ++i) w.Schedule(Minutes(8 * i), seq++, i);
  WheelEntry e;
  int popped = 0;
  while (w.PopUntil(std::numeric_limits<SimTime>::max(), &e)) {
    ++popped;
    EXPECT_EQ(e.time, Minutes(8 * popped));
  }
  EXPECT_EQ(popped, 8);
}

TEST(TimerWheelTest, OccupancyStatsBalance) {
  TimerWheel w;
  Rng rng(7);
  std::uint64_t seq = 1;
  for (int i = 0; i < 5000; ++i) {
    w.Schedule(rng.UniformInt(0, Minutes(100)), seq++, i);
  }
  WheelEntry e;
  while (w.PopUntil(std::numeric_limits<SimTime>::max(), &e)) {
  }
  const auto& s = w.stats();
  for (int level = 0; level < TimerWheel::kLevels; ++level) {
    EXPECT_EQ(s.occupancy[level], 0u) << "level " << level;
  }
  EXPECT_EQ(s.overflow_occupancy, 0u);
  EXPECT_TRUE(w.Empty());
}

// Random schedules across every tier (equal and zero delays included),
// replayed into the reference heap and popped under random limits. The pop
// leg takes one entry per PopUntil; the drain leg empties everything up to
// the limit through DrainUntil, the city engine's path, and its handler
// schedules back into the wheel, the drained tick included. Both must pop
// exactly the heap's (time, seq) order, and ResumeAt() must stay a lower
// bound on the next entry that lies past the drained limit.
void RunTierWorkload(std::uint64_t seed, bool drain) {
  TimerWheel w;
  ReferenceHeapSimulator ref;
  Rng rng(seed);
  std::vector<std::uint64_t> ref_popped;
  // Delays and pop horizons reach every tier: the drained tick, level 0,
  // level 1 (> ~4.5 min), level 2 (> ~4.8 h) and the calendar (> ~76 h).
  const SimDuration spans[] = {0,          Millis(50),   Seconds(3),
                               Minutes(6), Minutes(600), Minutes(9'000)};
  const auto draw = [&] {
    return rng.UniformInt(0, spans[rng.UniformInt(0, 5)]);
  };
  std::uint64_t seq = 1;
  const auto schedule = [&](SimTime t) {
    w.Schedule(t, seq, seq);
    ref.ScheduleAt(t, [&ref_popped, id = seq] { ref_popped.push_back(id); });
    ++seq;
    ASSERT_LE(w.ResumeAt(), t);
  };
  const auto expect_next = [&](const WheelEntry& e) {
    ASSERT_TRUE(ref.Step());
    ASSERT_EQ(e.time, ref.now());
    ASSERT_EQ(e.payload, ref_popped.back());
  };
  // Schedules outnumber pops for 3,000 operations; then pops alone drain
  // the backlog, carrying the position through every tier.
  for (int op = 0; op < 3000 || !w.Empty(); ++op) {
    if (op < 3000 && rng.Uniform() < 0.55) {
      schedule(ref.now() + draw());
      continue;
    }
    const SimTime limit = ref.now() + draw();
    if (drain) {
      w.DrainUntil(limit, [&](const WheelEntry& e) {
        expect_next(e);
        if (op < 3000 && rng.Uniform() < 0.3) schedule(e.time + draw());
      });
      ASSERT_FALSE(::testing::Test::HasFatalFailure())
          << "seed " << seed << " op " << op;
      ASSERT_GT(w.ResumeAt(), limit) << "seed " << seed << " op " << op;
    } else {
      WheelEntry e;
      if (w.PopUntil(limit, &e)) {
        expect_next(e);
        ASSERT_FALSE(::testing::Test::HasFatalFailure())
            << "seed " << seed << " op " << op;
        continue;
      }
    }
    ASSERT_GT(ref.NextEntryTime(), limit) << "seed " << seed << " op " << op;
    ASSERT_LE(w.ResumeAt(), ref.NextEntryTime())
        << "seed " << seed << " op " << op;
    ASSERT_EQ(w.Size(), ref.PendingEvents()) << "seed " << seed;
  }
  // The workload reached every tier.
  EXPECT_GT(w.stats().inserts[2], 0u) << "seed " << seed;
  EXPECT_GT(w.stats().cascaded, 0u) << "seed " << seed;
  EXPECT_GT(w.stats().migrated, 0u) << "seed " << seed;
}

TEST(TimerWheelTest, PopsMatchTheHeapAcrossEveryTier) {
  for (const bool drain : {false, true}) {
    SCOPED_TRACE(drain ? "DrainUntil" : "PopUntil");
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      RunTierWorkload(seed, drain);
    }
  }
}

// ---------------------------------------------------------------------------
// Differential property tests, heap oracle vs the Simulator.

// Drives an identical randomized workload through both kernels and asserts
// the observable execution is the same: same events in the same order at the
// same clock readings, same final accounting.
void RunDifferentialWorkload(std::uint64_t seed, int steps, SimTime max_delay,
                             double cancel_bias) {
  ReferenceHeapSimulator heap;
  Simulator kernel;
  std::vector<int> heap_log, kernel_log;
  std::vector<ReferenceHeapSimulator::EventId> heap_ids;
  std::vector<Simulator::EventId> kernel_ids;

  // Two RNG streams with the same seed make identical decisions.
  Rng rng_a(seed), rng_b(seed);
  const auto drive = [&](auto& sim, auto& ids, std::vector<int>& log,
                         Rng& rng) {
    for (int step = 0; step < steps; ++step) {
      const double roll = rng.Uniform();
      if (roll < 0.45) {
        const SimTime d = rng.UniformInt(0, max_delay);
        const int tag = step;
        ids.push_back(sim.ScheduleIn(d, [&log, tag] { log.push_back(tag); }));
      } else if (roll < 0.45 + cancel_bias && !ids.empty()) {
        sim.Cancel(ids[static_cast<std::size_t>(
            rng.UniformInt(0, ids.size() - 1))]);
      } else if (roll < 0.9) {
        sim.Step();
      } else {
        sim.RunUntil(sim.now() + rng.UniformInt(0, max_delay / 2));
      }
    }
    sim.RunAll();
  };
  drive(heap, heap_ids, heap_log, rng_a);
  drive(kernel, kernel_ids, kernel_log, rng_b);

  ASSERT_EQ(heap_log, kernel_log) << "seed " << seed;
  EXPECT_EQ(heap.now(), kernel.now());
  EXPECT_EQ(heap.ExecutedEvents(), kernel.ExecutedEvents());
  EXPECT_EQ(heap.ScheduledEvents(), kernel.ScheduledEvents());
  EXPECT_EQ(heap.CancelledEvents(), kernel.CancelledEvents());
  EXPECT_EQ(heap.PendingEvents(), kernel.PendingEvents());
}

TEST(WheelPropertyTest, MatchesHeapOnShortDelays) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RunDifferentialWorkload(seed, 4000, 300, 0.2);
  }
}

TEST(WheelPropertyTest, MatchesHeapAcrossTiers) {
  for (std::uint64_t seed = 100; seed <= 104; ++seed) {
    RunDifferentialWorkload(seed, 2000, Seconds(90), 0.2);
  }
}

TEST(WheelPropertyTest, MatchesHeapWithFarFutureGuards) {
  // Delays up to ~100 h, like the T3412/T3346 guard timers of long-lived
  // populations, mostly cancelled before they expire.
  for (std::uint64_t seed = 200; seed <= 203; ++seed) {
    RunDifferentialWorkload(seed, 1200, Minutes(6'000), 0.35);
  }
}

TEST(WheelPropertyTest, MatchesHeapOnEqualTimestampBursts) {
  // Many events at few distinct timestamps: the FIFO tie-break carries all
  // of the ordering information.
  ReferenceHeapSimulator heap;
  Simulator kernel;
  std::vector<int> heap_log, kernel_log;
  Rng rng_a(42), rng_b(42);
  const auto drive = [](auto& sim, std::vector<int>& log, Rng& rng) {
    for (int i = 0; i < 3000; ++i) {
      const SimTime t = rng.UniformInt(0, 9) * 100;
      sim.ScheduleAt(t, [&log, i] { log.push_back(i); });
    }
    sim.RunAll();
  };
  drive(heap, heap_log, rng_a);
  drive(kernel, kernel_log, rng_b);
  ASSERT_EQ(heap_log, kernel_log);
}

TEST(WheelPropertyTest, MatchesHeapOnReentrantChains) {
  // Handlers that reschedule at zero and small delays — the attach-retry
  // pattern — through both kernels.
  const auto drive = [](auto& sim, std::vector<int>& log) {
    for (int chain = 0; chain < 50; ++chain) {
      // The pending event owns the chain; the closure refers back to itself
      // weakly, so the last event frees it (a strong self-capture leaks).
      auto step = std::make_shared<std::function<void(int)>>();
      *step = [&sim, &log, chain,
               self = std::weak_ptr(step)](int depth) {
        log.push_back(chain * 100 + depth);
        if (depth < 20) {
          sim.ScheduleIn(depth % 3 == 0 ? 0 : depth,
                         [step = self.lock(), depth] { (*step)(depth + 1); });
        }
      };
      sim.ScheduleAt(chain * 7, [step] { (*step)(0); });
    }
    sim.RunAll();
  };
  ReferenceHeapSimulator heap;
  Simulator kernel;
  std::vector<int> heap_log, kernel_log;
  drive(heap, heap_log);
  drive(kernel, kernel_log);
  ASSERT_EQ(heap_log, kernel_log);
  EXPECT_EQ(heap.now(), kernel.now());
}

TEST(WheelPropertyTest, TimerStatsMatchHeapUnderRestartStorms) {
  // BasicTimer bound to each kernel: arm / restart / stop / expire storms
  // must produce identical TimerStats on both sides.
  const auto drive = [](auto& sim) {
    using SimT = std::remove_reference_t<decltype(sim)>;
    Rng rng(9001);
    std::vector<std::unique_ptr<BasicTimer<SimT>>> timers;
    for (int i = 0; i < 32; ++i) {
      timers.push_back(std::make_unique<BasicTimer<SimT>>(
          sim, "T" + std::to_string(i)));
    }
    for (int step = 0; step < 3000; ++step) {
      auto& t = *timers[static_cast<std::size_t>(
          rng.UniformInt(0, timers.size() - 1))];
      const double roll = rng.Uniform();
      if (roll < 0.5) {
        t.Start(rng.UniformInt(1, Seconds(10)), [] {});
      } else if (roll < 0.7) {
        t.Stop();
      } else {
        sim.RunUntil(sim.now() + rng.UniformInt(0, Millis(500)));
      }
    }
    sim.RunAll(sim.now() + Seconds(20));
    timers.clear();  // destructors stop running timers
  };
  ReferenceHeapSimulator heap;
  Simulator kernel;
  drive(heap);
  drive(kernel);
  EXPECT_EQ(heap.timer_stats().armed, kernel.timer_stats().armed);
  EXPECT_EQ(heap.timer_stats().fired, kernel.timer_stats().fired);
  EXPECT_EQ(heap.timer_stats().cancelled, kernel.timer_stats().cancelled);
  EXPECT_EQ(heap.now(), kernel.now());
  EXPECT_EQ(heap.ExecutedEvents(), kernel.ExecutedEvents());
}

}  // namespace
}  // namespace cnv::sim
