#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/timer.h"

namespace cnv::sim {
namespace {

TEST(SimulatorTest, StartsAtZeroAndIdle) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(Millis(30), [&] { order.push_back(3); });
  sim.ScheduleAt(Millis(10), [&] { order.push_back(1); });
  sim.ScheduleAt(Millis(20), [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Millis(30));
}

TEST(SimulatorTest, EqualTimestampsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(Millis(5), [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ScheduleInIsRelative) {
  Simulator sim;
  SimTime fired = -1;
  sim.ScheduleAt(Millis(10), [&] {
    sim.ScheduleIn(Millis(5), [&] { fired = sim.now(); });
  });
  sim.RunAll();
  EXPECT_EQ(fired, Millis(15));
}

TEST(SimulatorTest, RejectsPastAndInvalid) {
  Simulator sim;
  sim.ScheduleAt(Millis(10), [] {});
  sim.RunAll();
  EXPECT_THROW(sim.ScheduleAt(Millis(5), [] {}), std::invalid_argument);
  EXPECT_THROW(sim.ScheduleIn(-1, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.ScheduleAt(Millis(20), nullptr), std::invalid_argument);
  // now + d past the end of time is rejected, not computed.
  EXPECT_THROW(sim.ScheduleIn(std::numeric_limits<SimDuration>::max(), [] {}),
               std::invalid_argument);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.RunUntil(Seconds(5));
  EXPECT_EQ(sim.now(), Seconds(5));
  EXPECT_THROW(sim.RunUntil(Seconds(1)), std::invalid_argument);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(Millis(10), [&] { ++fired; });
  sim.ScheduleAt(Millis(30), [&] { ++fired; });
  sim.RunUntil(Millis(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Millis(20));
  sim.RunUntil(Millis(40));
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  const auto id = sim.ScheduleAt(Millis(10), [&] { ++fired; });
  sim.Cancel(id);
  sim.RunAll();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.ExecutedEvents(), 0u);
}

TEST(SimulatorTest, CancelledHeadDoesNotBlockRunUntil) {
  // Regression: a cancelled event at the queue head must not let a later
  // event run past the RunUntil boundary.
  Simulator sim;
  int fired = 0;
  const auto id = sim.ScheduleAt(Millis(10), [&] { ++fired; });
  sim.ScheduleAt(Millis(50), [&] { ++fired; });
  sim.Cancel(id);
  sim.RunUntil(Millis(20));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), Millis(20));
}

TEST(SimulatorTest, CancelIsIdempotentAndSafeAfterFire) {
  Simulator sim;
  int fired = 0;
  const auto id = sim.ScheduleAt(Millis(10), [&] { ++fired; });
  sim.RunAll();
  sim.Cancel(id);          // already fired: no-op
  sim.Cancel(id);          // repeated: no-op
  sim.Cancel(987654321u);  // unknown: no-op
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, HandlerMayScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sim.ScheduleIn(Millis(1), chain);
  };
  sim.ScheduleIn(Millis(1), chain);
  sim.RunAll();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), Millis(10));
  EXPECT_EQ(sim.ExecutedEvents(), 10u);
}

TEST(SimulatorTest, RunAllHonorsLimit) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(Seconds(1), [&] { ++fired; });
  sim.ScheduleAt(Seconds(10), [&] { ++fired; });
  sim.RunAll(Seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Seconds(5));
}

TEST(SimulatorTest, HandlerSlotsStayBoundedAcrossManyCycles) {
  // Regression: handlers_ used to be indexed by the ever-increasing EventId
  // and never shrank, leaking one slot per scheduled event. With the free
  // list, slot usage is bounded by the peak number of pending events.
  Simulator sim;
  std::uint64_t fired = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    sim.ScheduleIn(Millis(1), [&] { ++fired; });
    sim.Step();
  }
  EXPECT_EQ(fired, 1'000'000u);
  // One live event at a time plus the reserved slot 0.
  EXPECT_LE(sim.HandlerSlots(), 4u);
}

TEST(SimulatorTest, CancelledEventsAlsoRecycleSlots) {
  Simulator sim;
  for (int i = 0; i < 100'000; ++i) {
    const auto id = sim.ScheduleIn(Millis(1), [] {});
    sim.Cancel(id);
    sim.RunUntil(sim.now() + Millis(1));
  }
  EXPECT_EQ(sim.ExecutedEvents(), 0u);
  EXPECT_LE(sim.HandlerSlots(), 4u);
}

TEST(SimulatorTest, StaleIdCannotCancelRecycledSlot) {
  // A handle kept past its event's execution must not cancel a newer event
  // that happens to reuse the same handler slot.
  Simulator sim;
  int first = 0, second = 0;
  const auto id = sim.ScheduleAt(Millis(1), [&] { ++first; });
  sim.RunAll();
  const auto id2 = sim.ScheduleAt(Millis(2), [&] { ++second; });
  EXPECT_NE(id, id2);  // same slot, different generation
  sim.Cancel(id);      // stale: must be a no-op
  sim.RunAll();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(SimulatorTest, TelemetryCountersTrackQueueActivity) {
  Simulator sim;
  const auto id = sim.ScheduleAt(Millis(10), [] {});
  sim.ScheduleAt(Millis(20), [] {});
  sim.ScheduleAt(Millis(30), [] {});
  EXPECT_EQ(sim.ScheduledEvents(), 3u);
  EXPECT_EQ(sim.PeakQueueDepth(), 3u);
  sim.Cancel(id);
  EXPECT_EQ(sim.CancelledEvents(), 1u);
  sim.Cancel(id);  // repeated cancel must not double-count
  EXPECT_EQ(sim.CancelledEvents(), 1u);
  sim.RunAll();
  EXPECT_EQ(sim.ExecutedEvents(), 2u);
  EXPECT_EQ(sim.PeakQueueDepth(), 3u);  // peak is sticky after drain
}

// --- ScheduleSeries ---------------------------------------------------------
//
// A series must pop in exactly the order of the ScheduleAt loop it stands in
// for. Each scenario runs once with the loop on a twin simulator and three
// times with ScheduleSeries, each under a different driver, and every
// (time, label) log must match the loop's.

using Log = std::vector<std::pair<SimTime, std::string>>;

// Schedules `count` steps either as one series or as the equivalent loop.
void Burst(Simulator& sim, bool series, SimTime start, std::size_t count,
           SimDuration spacing, std::function<void(std::size_t)> fn) {
  if (series) {
    sim.ScheduleSeries(start, count, spacing, std::move(fn));
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    sim.ScheduleAt(start + static_cast<SimDuration>(i) * spacing,
                   [fn, i] { fn(i); });
  }
}

enum class Driver { kStep, kRunAll, kChunks };

// Runs `sim` until idle, checking that each Step() runs one event and that
// no event logged to `log` runs past a RunUntil limit. kChunks calls
// RunUntil with limits cycling through just before, exactly on and halfway
// past each instant in `instants` (ascending), so chunk ends fall on every
// side of the series' steps.
void Drive(Simulator& sim, Driver driver, const std::vector<SimTime>& instants,
           const Log& log) {
  switch (driver) {
    case Driver::kStep:
      for (std::uint64_t before = 0; sim.Step();) {
        EXPECT_EQ(sim.ExecutedEvents(), ++before);
      }
      return;
    case Driver::kRunAll:
      sim.RunAll();
      return;
    case Driver::kChunks:
      for (std::size_t k = 0; k < instants.size(); ++k) {
        SimTime limit = instants[k];
        if (k % 3 == 0) {
          limit -= 1;
        } else if (k % 3 == 2 && k + 1 < instants.size()) {
          limit += (instants[k + 1] - instants[k]) / 2;
        }
        if (limit < sim.now()) continue;
        sim.RunUntil(limit);
        if (!log.empty()) {
          EXPECT_LE(log.back().first, limit);
        }
      }
      sim.RunAll();
      return;
  }
}

template <class Scenario>
void ExpectSeriesMatchesLoop(Scenario scenario) {
  Log with_loop;
  Simulator b;
  scenario(b, false, with_loop);
  b.RunAll();
  std::vector<SimTime> instants;
  for (const auto& entry : with_loop) {
    if (instants.empty() || instants.back() != entry.first) {
      instants.push_back(entry.first);
    }
  }
  Simulator runs[3];
  const Driver drivers[3] = {Driver::kStep, Driver::kRunAll, Driver::kChunks};
  for (int d = 0; d < 3; ++d) {
    SCOPED_TRACE("driver " + std::to_string(d));
    Simulator& a = runs[d];
    Log with_series;
    scenario(a, true, with_series);
    Drive(a, drivers[d], instants, with_series);
    EXPECT_EQ(with_series, with_loop);
    EXPECT_EQ(a.now(), b.now());
    EXPECT_EQ(a.ExecutedEvents(), b.ExecutedEvents());
    EXPECT_EQ(a.PendingEvents(), 0u);
    // The kernel counters may not depend on how the run was driven.
    EXPECT_EQ(a.ExecutedEvents(), runs[0].ExecutedEvents());
    EXPECT_EQ(a.ScheduledEvents(), runs[0].ScheduledEvents());
    EXPECT_EQ(a.PendingEvents(), runs[0].PendingEvents());
    EXPECT_EQ(a.PeakQueueDepth(), runs[0].PeakQueueDepth());
    EXPECT_EQ(a.HandlerSlots(), runs[0].HandlerSlots());
  }
}

// Logs `label` at the current time when run.
std::function<void()> Mark(Simulator& sim, Log& log, std::string label) {
  return [&sim, &log, label] { log.emplace_back(sim.now(), label); };
}

TEST(SimulatorTest, SeriesInterleavesSameTimestampEventsLikeTheLoop) {
  ExpectSeriesMatchesLoop([](Simulator& sim, bool series, Log& log) {
    sim.ScheduleAt(Millis(10), Mark(sim, log, "before@10"));
    sim.ScheduleAt(Millis(20), Mark(sim, log, "before@20"));
    Burst(sim, series, Millis(10), 6, Millis(5), [&sim, &log](std::size_t i) {
      log.emplace_back(sim.now(), "s" + std::to_string(i));
      // Zero-delay and same-tick follow-ups from inside a step.
      if (i % 2 == 0) {
        sim.ScheduleIn(0, Mark(sim, log, "s" + std::to_string(i) + "+0"));
      }
      if (i == 1) sim.ScheduleIn(Millis(5), Mark(sim, log, "s1+5"));
    });
    sim.ScheduleAt(Millis(10), Mark(sim, log, "after@10"));
    sim.ScheduleAt(Millis(20), Mark(sim, log, "after@20"));
    sim.ScheduleAt(Millis(15), [&sim, &log] {
      log.emplace_back(sim.now(), "h@15");
      sim.ScheduleAt(Millis(20), Mark(sim, log, "h->20"));
      sim.ScheduleIn(0, Mark(sim, log, "h->15"));
    });
  });
}

TEST(SimulatorTest, SeriesWithZeroSpacingKeepsFifoOrder) {
  ExpectSeriesMatchesLoop([](Simulator& sim, bool series, Log& log) {
    sim.ScheduleAt(Seconds(1), Mark(sim, log, "before"));
    Burst(sim, series, Seconds(1), 50, 0, [&sim, &log](std::size_t i) {
      log.emplace_back(sim.now(), "s" + std::to_string(i));
      if (i % 7 == 0) {
        sim.ScheduleIn(0, Mark(sim, log, "f" + std::to_string(i)));
      }
    });
    sim.ScheduleAt(Seconds(1), Mark(sim, log, "after"));
  });
}

TEST(SimulatorTest, SeriesSpanningWheelLevelsAndCalendarMatchesLoop) {
  // 37-minute spacing over 300 steps covers ~185 h: level 0, both higher
  // levels and the calendar tier beyond the ~76 h wheel horizon.
  ExpectSeriesMatchesLoop([](Simulator& sim, bool series, Log& log) {
    const SimDuration spacing = Minutes(37);
    Burst(sim, series, Seconds(3), 300, spacing, [&sim, &log](std::size_t i) {
      log.emplace_back(sim.now(), "s" + std::to_string(i));
    });
    std::uint64_t x = 88172645463325252ULL;
    for (int k = 0; k < 400; ++k) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      // Half land exactly on a step instant, half anywhere in the span.
      const SimTime t =
          k % 2 == 0
              ? Seconds(3) + static_cast<SimDuration>(x % 300) * spacing
              : static_cast<SimTime>(x % static_cast<std::uint64_t>(
                                             300 * spacing));
      sim.ScheduleAt(t, Mark(sim, log, "e" + std::to_string(k)));
    }
  });
}

TEST(SimulatorTest, SeriesStartedInsideAHandlerMatchesLoop) {
  ExpectSeriesMatchesLoop([](Simulator& sim, bool series, Log& log) {
    sim.ScheduleAt(Seconds(2), Mark(sim, log, "pre@2.5"));
    sim.ScheduleAt(Seconds(2), [&sim, &log, series] {
      sim.ScheduleIn(Millis(500), Mark(sim, log, "h-before"));
      Burst(sim, series, sim.now() + Millis(500), 20, Millis(250),
            [&sim, &log](std::size_t i) {
              log.emplace_back(sim.now(), "s" + std::to_string(i));
            });
      sim.ScheduleIn(Millis(500), Mark(sim, log, "h-after"));
      sim.ScheduleIn(Seconds(2), Mark(sim, log, "h-mid"));
    });
    sim.ScheduleAt(Millis(2500), Mark(sim, log, "outer@2.5"));
  });
}

TEST(SimulatorTest, SeriesStartingNowRunsAfterEarlierSameInstantEvents) {
  ExpectSeriesMatchesLoop([](Simulator& sim, bool series, Log& log) {
    sim.ScheduleAt(Seconds(5), [&sim, &log, series] {
      sim.ScheduleIn(0, Mark(sim, log, "first"));
      Burst(sim, series, sim.now(), 4, Millis(1), [&sim, &log](std::size_t i) {
        log.emplace_back(sim.now(), "s" + std::to_string(i));
      });
      sim.ScheduleIn(0, Mark(sim, log, "last"));
      // Same instants as steps 1 and 2, scheduled after the series call:
      // the loop would have queued them behind those steps.
      sim.ScheduleIn(Millis(1), Mark(sim, log, "later@+1"));
      sim.ScheduleIn(Millis(2), Mark(sim, log, "later@+2"));
    });
    sim.ScheduleAt(Seconds(5), Mark(sim, log, "queued@5"));
  });
}

TEST(SimulatorTest, TwoSeriesOnTheSameInstantsMatchLoop) {
  // The inner series starts on an outer step's instant and then shares
  // every other instant with the outer one: each tie is broken by the
  // reserved seqs, so outer steps (reserved first) run before inner ones.
  ExpectSeriesMatchesLoop([](Simulator& sim, bool series, Log& log) {
    Burst(sim, series, Seconds(1), 20, Millis(10),
          [&sim, &log, series](std::size_t i) {
            log.emplace_back(sim.now(), "a" + std::to_string(i));
            if (i != 3) return;
            Burst(sim, series, sim.now() + Millis(10), 12, Millis(5),
                  [&sim, &log](std::size_t j) {
                    log.emplace_back(sim.now(), "b" + std::to_string(j));
                  });
          });
    sim.ScheduleAt(Millis(1050), Mark(sim, log, "e@1050"));
  });
}

TEST(SimulatorTest, SeriesStepThatCancelsAQueuedEventMatchesLoop) {
  ExpectSeriesMatchesLoop([](Simulator& sim, bool series, Log& log) {
    auto ids = std::make_shared<std::vector<Simulator::EventId>>();
    // One event on each step instant and one between each pair of steps.
    for (int k = 0; k < 20; ++k) {
      ids->push_back(sim.ScheduleAt(Seconds(3) + Millis(5) * k,
                                    Mark(sim, log, "e" + std::to_string(k))));
    }
    Burst(sim, series, Seconds(3), 10, Millis(10),
          [&sim, &log, ids](std::size_t i) {
            log.emplace_back(sim.now(), "s" + std::to_string(i));
            // Cancel the events on the next step's instant and just before
            // it, so that step is the head once they are gone.
            sim.Cancel((*ids)[2 * i + 1]);
            if (i % 2 == 0) sim.Cancel((*ids)[2 * i + 2]);
          });
  });
}

TEST(SimulatorTest, SeriesHoldsOneQueueEntryAtATime) {
  Simulator sim;
  std::size_t fired = 0;
  std::size_t max_pending = 0;
  sim.ScheduleSeries(0, 100'000, Millis(1), [&](std::size_t i) {
    EXPECT_EQ(i, fired);
    ++fired;
    max_pending = std::max(max_pending, sim.PendingEvents());
  });
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.RunAll();
  EXPECT_EQ(fired, 100'000u);
  EXPECT_EQ(max_pending, 1u);  // the next step, held while fn(i) runs
  EXPECT_LE(sim.HandlerSlots(), 3u);
  EXPECT_LE(sim.PeakQueueDepth(), 2u);
  EXPECT_EQ(sim.ScheduledEvents(), 100'000u);
  EXPECT_EQ(sim.ExecutedEvents(), 100'000u);
}

TEST(SimulatorTest, HeldStepCountsAsPendingInsideTheStep) {
  for (const Driver driver : {Driver::kStep, Driver::kRunAll}) {
    Simulator sim;
    const SimDuration spacing = Millis(3);
    const std::size_t count = 1000;
    sim.ScheduleAt(Minutes(60), [] {});
    std::size_t fired = 0;
    sim.ScheduleSeries(Seconds(1), count, spacing, [&](std::size_t i) {
      ++fired;
      const bool last = i + 1 == count;
      EXPECT_EQ(sim.PendingEvents(), last ? 1u : 2u) << i;
      EXPECT_EQ(sim.PeakQueueDepth(), i <= 5 ? 2u : 3u) << i;
      if (!last) {
        EXPECT_LE(sim.NextEventLowerBound(),
                  Seconds(1) + static_cast<SimDuration>(i + 1) * spacing)
            << i;
      }
      if (i == 5) {
        // Queued next to the far event and the held step: depth 3.
        sim.ScheduleIn(Millis(1), [] {});
        EXPECT_EQ(sim.PeakQueueDepth(), 3u);
      }
    });
    Drive(sim, driver, {}, {});
    EXPECT_EQ(fired, count);
    EXPECT_EQ(sim.ExecutedEvents(), count + 2);
    EXPECT_EQ(sim.ScheduledEvents(), count + 2);
  }
}

TEST(SimulatorTest, SeriesStepThatThrowsLeavesTheNextStepPending) {
  Simulator sim;
  std::vector<std::size_t> ran;
  sim.ScheduleSeries(Millis(1), 5, Millis(1), [&](std::size_t i) {
    ran.push_back(i);
    if (i == 2) throw std::runtime_error("step 2");
  });
  EXPECT_THROW(sim.RunAll(), std::runtime_error);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  EXPECT_EQ(sim.now(), Millis(3));
  sim.RunAll();
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, HandlerThatStepsTheSimulatorRunsTheHeldStep) {
  // A step handler that drives the kernel itself must find the next step
  // queued, as a loop of ScheduleAt calls would have it.
  Log with_series, with_loop;
  for (const bool series : {true, false}) {
    Simulator sim;
    Log& log = series ? with_series : with_loop;
    Burst(sim, series, Millis(10), 8, Millis(10), [&](std::size_t i) {
      log.emplace_back(sim.now(), "s" + std::to_string(i));
      if (i == 1) {
        EXPECT_TRUE(sim.Step());
        log.emplace_back(sim.now(), "stepped");
      }
      if (i == 3) {
        sim.RunUntil(sim.now() + Millis(15));
        log.emplace_back(sim.now(), "ran");
      }
      if (i == 5) {
        sim.RunAll();  // runs the rest of the series
        log.emplace_back(sim.now(), "drained");
      }
    });
    sim.ScheduleAt(Millis(35), Mark(sim, log, "e@35"));
    sim.RunAll();
    EXPECT_EQ(sim.ExecutedEvents(), 9u);
  }
  EXPECT_EQ(with_series, with_loop);
}

TEST(SimulatorTest, SeriesRejectsPastStartAndNegativeSpacing) {
  Simulator sim;
  sim.RunUntil(Seconds(1));
  const auto noop = [](std::size_t) {};
  EXPECT_THROW(sim.ScheduleSeries(Millis(999), 3, Millis(1), noop),
               std::invalid_argument);
  EXPECT_THROW(sim.ScheduleSeries(Seconds(2), 3, -1, noop),
               std::invalid_argument);
  EXPECT_THROW(sim.ScheduleSeries(Seconds(2), 3, Millis(1), nullptr),
               std::invalid_argument);
  EXPECT_THROW(sim.ScheduleSeries(Seconds(2), 3,
                                  std::numeric_limits<SimTime>::max() / 2,
                                  noop),
               std::invalid_argument);
  sim.ScheduleSeries(Seconds(2), 0, Millis(1), noop);  // empty: no-op
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

// --- ScheduleBlock ----------------------------------------------------------
//
// A key block reserves a series' keys and runs one event at the last; its
// Passed() must count exactly the steps the series would have fired by
// then, at every read: inside events queued before and after the block,
// and between runs.

TEST(SimulatorTest, BlockRejectsWhatSeriesRejects) {
  Simulator sim;
  sim.RunUntil(Seconds(1));
  const auto noop = [] {};
  EXPECT_THROW(sim.ScheduleBlock(Millis(999), 3, Millis(1), noop),
               std::invalid_argument);
  EXPECT_THROW(sim.ScheduleBlock(Seconds(2), 3, -1, noop),
               std::invalid_argument);
  EXPECT_THROW(sim.ScheduleBlock(Seconds(2), 3, Millis(1), nullptr),
               std::invalid_argument);
  EXPECT_THROW(sim.ScheduleBlock(Seconds(2), 3,
                                 std::numeric_limits<SimTime>::max() / 2,
                                 noop),
               std::invalid_argument);
  const Simulator::KeyBlock empty =
      sim.ScheduleBlock(Seconds(2), 0, Millis(1), noop);
  EXPECT_EQ(sim.PendingEvents(), 0u);
  sim.RunAll();
  EXPECT_EQ(sim.Passed(empty), 0u);
}

// A run that fires nothing leaves keys taken at now unpassed, even when
// its limit lies before now.
TEST(SimulatorTest, BlockKeysAtNowPassOnlyOnceTheirTimeIsRun) {
  Simulator sim;
  sim.RunUntil(Millis(5));
  const Simulator::KeyBlock b =
      sim.ScheduleBlock(Millis(5), 3, 0, [] {});
  EXPECT_EQ(sim.Passed(b), 0u);
  sim.RunAll(Millis(4));
  EXPECT_EQ(sim.Passed(b), 0u);
  sim.RunUntil(Millis(5));
  EXPECT_EQ(sim.Passed(b), 3u);
}

TEST(SimulatorTest, BlockPassedMatchesTheStepsASeriesFired) {
  std::mt19937_64 rng(20'260);
  const auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  for (int trial = 0; trial < 200; ++trial) {
    Simulator with_series;
    Simulator with_block;
    std::vector<std::size_t> fired;  // per burst, on the series side
    std::vector<Simulator::KeyBlock> blocks;
    std::vector<std::string> series_reads;
    std::vector<std::string> block_reads;
    const auto read_series = [&] {
      std::string r = std::to_string(with_series.now());
      for (const std::size_t n : fired) r += " " + std::to_string(n);
      series_reads.push_back(r);
    };
    const auto read_block = [&] {
      std::string r = std::to_string(with_block.now());
      for (const auto& b : blocks) {
        r += " " + std::to_string(with_block.Passed(b));
      }
      block_reads.push_back(r);
    };
    // Both simulators take the same calls in the same order.
    const auto probe = [&](SimTime at) {
      with_series.ScheduleAt(at, read_series);
      with_block.ScheduleAt(at, read_block);
    };
    for (int round = 0; round < 4; ++round) {
      const SimTime start = with_series.now() + (pick(0, 1) ? 0 : pick(1, 9));
      const auto count =
          static_cast<std::size_t>(pick(0, 2) == 0 ? pick(0, 1) : pick(2, 30));
      const SimDuration spacing = pick(0, 3) == 0 ? 0 : pick(1, 5);
      // A step instant, or any instant up to just past the block.
      const auto instant = [&] {
        if (pick(0, 1) == 0) {
          return start +
                 pick(0, static_cast<std::int64_t>(count) * spacing + 3);
        }
        return start + pick(0, count == 0 ? 0 : count - 1) * spacing;
      };
      for (int i = pick(0, 2); i > 0; --i) probe(instant());
      const std::size_t index = fired.size();
      fired.push_back(0);
      with_series.ScheduleSeries(start, count, spacing,
                                 [&fired, index](std::size_t) {
                                   ++fired[index];
                                 });
      blocks.push_back(with_block.ScheduleBlock(start, count, spacing, [] {}));
      read_series();  // right after the call, between runs
      read_block();
      for (int i = pick(0, 2); i > 0; --i) probe(instant());
      // Reads from a series of probes too, whose steps run ahead.
      if (pick(0, 1) == 0) {
        const SimTime at = instant();
        const auto n = static_cast<std::size_t>(pick(1, 6));
        const SimDuration every = pick(0, 4);
        with_series.ScheduleSeries(at, n, every,
                                   [&](std::size_t) { read_series(); });
        with_block.ScheduleSeries(at, n, every,
                                  [&](std::size_t) { read_block(); });
      }
      const SimTime until =
          start + pick(0, static_cast<std::int64_t>(count) * spacing + 3);
      with_series.RunUntil(until);
      with_block.RunUntil(until);
      read_series();
      read_block();
      ASSERT_EQ(block_reads, series_reads) << "trial " << trial;
      EXPECT_EQ(with_block.PendingEvents(), with_series.PendingEvents());
      EXPECT_EQ(with_block.PeakQueueDepth(), with_series.PeakQueueDepth());
      EXPECT_EQ(with_block.HandlerSlots(), with_series.HandlerSlots());
    }
    with_series.RunAll();
    with_block.RunAll();
    read_series();
    read_block();
    ASSERT_EQ(block_reads, series_reads) << "trial " << trial;
    std::uint64_t steps = 0;
    std::uint64_t blocks_run = 0;
    for (const auto& b : blocks) {
      steps += b.count;
      blocks_run += b.count > 0 ? 1 : 0;
    }
    EXPECT_EQ(with_series.ExecutedEvents() - with_block.ExecutedEvents(),
              steps - blocks_run);
    EXPECT_EQ(with_series.ScheduledEvents() - with_block.ScheduledEvents(),
              steps - blocks_run);
  }
}

// Drives random schedules, cancellations and series bursts, checking the
// bound against a ledger of the queue: every (time, seq) key scheduled and
// not yet popped, cancelled ones included, with a series' pending step under
// its reserved key. The kernel issues seqs in call order, so the ledger can
// mirror them. Whenever anything is pending the bound must be exactly the
// earliest key's time; on an empty queue, the end of the 2^20 us interval
// holding the latest time popped or run (0 before any pop). A dense run
// keeps up to 200 events in flight, some due 30 h out; a sparse one lets
// the queue run dry, down to tombstones alone or a lone series running
// ahead, and refills it from outside any event.
void CheckBoundAgainstLedger(bool dense) {
  Simulator sim;
  std::uint64_t x = dense ? 0x2545F4914F6CDD1DULL : 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  struct Key {
    Simulator::EventId id = Simulator::kInvalidEvent;  // none for a step
    bool live = true;
  };
  using Stamp = std::pair<SimTime, std::uint64_t>;
  std::map<Stamp, Key> ledger;
  std::uint64_t seq = 1;
  SimTime reached = -1;
  std::size_t steps = 0, held = 0, cancelled = 0, idle = 0;
  const auto pop = [&] {
    reached = std::max(reached, ledger.begin()->first.first);
    ledger.erase(ledger.begin());
  };
  const auto check = [&](const char* where) {
    if (ledger.empty()) ++idle;
    const SimTime expected =
        !ledger.empty() ? ledger.begin()->first.first
        : reached < 0   ? 0
                        : (reached / (SimTime{1} << 20) + 1) << 20;
    ASSERT_EQ(sim.NextEventLowerBound(), expected)
        << where << " at " << sim.now();
  };
  // An event runs under `key`: every entry before it popped first, and all
  // of those were cancelled.
  const auto fired = [&](Stamp key) {
    while (ledger.begin()->first < key) {
      EXPECT_FALSE(ledger.begin()->second.live) << "live entry skipped";
      pop();
    }
    ASSERT_EQ(ledger.begin()->first, key);
    pop();
  };
  std::function<void(Stamp)> handler;
  const auto schedule = [&](SimDuration d) {
    const Stamp key{sim.now() + d, seq++};
    ledger[key] = Key{sim.ScheduleIn(d, [&handler, key] { handler(key); })};
  };
  const auto burst = [&] {
    const SimTime start =
        sim.now() + static_cast<SimDuration>(next() % Seconds(2));
    const auto spacing = static_cast<SimDuration>(next() % Millis(300));
    const std::size_t count = 2 + next() % 20;
    const std::uint64_t first_seq = seq;
    seq += count;
    ledger[{start, first_seq}] = Key{};
    sim.ScheduleSeries(start, count, spacing, [&, start, spacing, count,
                                               first_seq](std::size_t i) {
      const auto key_of = [&](std::size_t k) {
        return Stamp{start + static_cast<SimDuration>(k) * spacing,
                     first_seq + k};
      };
      fired(key_of(i));
      ++steps;
      if (i + 1 < count) {
        ledger[key_of(i + 1)] = Key{};  // held while this step runs
        ++held;
      }
      check("series step");
    });
  };
  handler = [&](Stamp key) {
    fired(key);
    check("handler entry");
    const int fanout = static_cast<int>(next() % (dense ? 3 : 2));
    for (int k = 0; k < fanout && ledger.size() < 200; ++k) {
      schedule(static_cast<SimDuration>(
          next() % (k == 0 || !dense ? Seconds(3) : Minutes(30 * 60))));
    }
    if (next() % (dense ? 4 : 2) == 0) {
      // Cancel a live event: it stays in the queue as a tombstone.
      for (auto& [stamp, entry] : ledger) {
        if (entry.live && entry.id != Simulator::kInvalidEvent &&
            (!dense || next() % 8 == 0)) {
          sim.Cancel(entry.id);
          entry.live = false;
          ++cancelled;
          break;
        }
      }
    }
    if (next() % (dense ? 16 : 4) == 0) burst();
    check("handler exit");
  };
  check("before any pop");
  for (int k = 0; k < (dense ? 50 : 2); ++k) {
    schedule(static_cast<SimDuration>(next() % Seconds(20)));
  }
  for (int n = 0; n < 5000; ++n) {
    if (ledger.empty()) {
      if (dense) break;
      // Refill a dry queue from outside any event.
      schedule(static_cast<SimDuration>(next() % Seconds(3)));
      if (next() % 2 == 0) burst();
      check("refill");
    }
    if (n % 2 == 0) {
      if (!sim.Step()) {
        // Only tombstones were left, and Step() popped them all.
        while (!ledger.empty()) {
          EXPECT_FALSE(ledger.begin()->second.live);
          pop();
        }
      }
    } else {
      // Series steps run ahead only under RunUntil/RunAll.
      const SimTime limit =
          sim.now() + static_cast<SimDuration>(next() % Seconds(2));
      sim.RunUntil(limit);
      while (!ledger.empty() && ledger.begin()->first.first <= limit) {
        EXPECT_FALSE(ledger.begin()->second.live) << "unfired at " << limit;
        pop();
      }
    }
    check("driver");
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The workload reached the cases the bound has to get right.
  EXPECT_GT(steps, 100u);
  EXPECT_GT(held, 50u);
  EXPECT_GT(cancelled, 50u);
  if (!dense) {
    EXPECT_GT(idle, 100u);
  }
}

TEST(SimulatorTest, NextEventLowerBoundNeverPassesThePendingHead) {
  {
    SCOPED_TRACE("dense");
    CheckBoundAgainstLedger(true);
  }
  SCOPED_TRACE("sparse");
  CheckBoundAgainstLedger(false);
}

TEST(TimerTest, TimerStatsCountArmedFiredCancelled) {
  Simulator sim;
  Timer a(sim, "fires"), b(sim, "stopped");
  a.Start(Seconds(1), [] {});
  b.Start(Seconds(2), [] {});
  b.Stop();
  a.Start(Seconds(1), [] {});  // re-arm counts as a new arming
  sim.RunAll();
  EXPECT_EQ(sim.timer_stats().armed, 3u);
  EXPECT_EQ(sim.timer_stats().fired, 1u);
  EXPECT_EQ(sim.timer_stats().cancelled, 2u);  // explicit Stop + re-arm
}

TEST(TimerTest, FiresOnceAfterDuration) {
  Simulator sim;
  Timer t(sim, "T3410");
  int fired = 0;
  t.Start(Seconds(15), [&] { ++fired; });
  EXPECT_TRUE(t.IsRunning());
  sim.RunAll();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.IsRunning());
  EXPECT_EQ(sim.now(), Seconds(15));
}

TEST(TimerTest, StopCancels) {
  Simulator sim;
  Timer t(sim, "T3410");
  int fired = 0;
  t.Start(Seconds(15), [&] { ++fired; });
  t.Stop();
  sim.RunAll();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(t.IsRunning());
}

TEST(TimerTest, RestartSupersedesPreviousDeadline) {
  Simulator sim;
  Timer t(sim, "guard");
  std::vector<SimTime> fires;
  t.Start(Seconds(10), [&] { fires.push_back(sim.now()); });
  sim.RunUntil(Seconds(5));
  t.Start(Seconds(10), [&] { fires.push_back(sim.now()); });  // re-arm
  sim.RunAll();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], Seconds(15));
}

TEST(TimerTest, DestructionCancelsPending) {
  Simulator sim;
  int fired = 0;
  {
    Timer t(sim, "scoped");
    t.Start(Seconds(1), [&] { ++fired; });
  }
  sim.RunAll();
  EXPECT_EQ(fired, 0);
}

}  // namespace
}  // namespace cnv::sim
