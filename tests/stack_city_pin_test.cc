// Pins the city engine's busy hour: the determinism digest and every
// protocol counter of two fixed configurations, run serially. The other
// city suites compare runs with each other; this one compares a run with
// values recorded once, so a change to the busy-hour shape, the hotspot
// routing or the window width shows here even when it is deterministic.
#include <algorithm>
#include <cstdint>

#include <gtest/gtest.h>

#include "stack/city.h"

namespace cnv::stack {
namespace {

struct Pin {
  std::uint64_t digest;
  std::uint64_t events_executed;
  std::uint64_t stale_events;
  std::uint64_t attaches_started;
  std::uint64_t attaches_completed;
  std::uint64_t attaches_rejected;
  std::uint64_t guard_expiries;
  std::uint64_t backoffs_armed;
  std::uint64_t sessions;
  std::uint64_t pagings;
  std::uint64_t handovers;
  std::uint64_t location_updates;
  std::uint64_t taus;
  std::uint64_t storms_flagged;
  std::uint64_t windows;
  std::uint64_t cross_cell_messages;
};

void ExpectPinned(const CityConfig& cfg, const Pin& want) {
  CityEngine engine(cfg);
  const CityReport r = engine.Run(nullptr);
  EXPECT_EQ(r.digest, want.digest);
  EXPECT_EQ(r.events_executed, want.events_executed);
  EXPECT_EQ(r.stale_events, want.stale_events);
  EXPECT_EQ(r.attaches_started, want.attaches_started);
  EXPECT_EQ(r.attaches_completed, want.attaches_completed);
  EXPECT_EQ(r.attaches_rejected, want.attaches_rejected);
  EXPECT_EQ(r.guard_expiries, want.guard_expiries);
  EXPECT_EQ(r.backoffs_armed, want.backoffs_armed);
  EXPECT_EQ(r.sessions, want.sessions);
  EXPECT_EQ(r.pagings, want.pagings);
  EXPECT_EQ(r.handovers, want.handovers);
  EXPECT_EQ(r.location_updates, want.location_updates);
  EXPECT_EQ(r.taus, want.taus);
  EXPECT_EQ(r.storms_flagged, want.storms_flagged);
  EXPECT_EQ(r.windows, want.windows);
  EXPECT_EQ(r.cross_cell_messages, want.cross_cell_messages);
}

TEST(CityDeterminismTest, BusyHourIsPinned) {
  // The default configuration: 10k UEs over 64 cells for 10 minutes.
  ExpectPinned(CityConfig{},
               Pin{.digest = 2381171326493957907ull,
                   .events_executed = 474088,
                   .stale_events = 1171,
                   .attaches_started = 10732,
                   .attaches_completed = 10000,
                   .attaches_rejected = 0,
                   .guard_expiries = 808,
                   .backoffs_armed = 0,
                   .sessions = 120885,
                   .pagings = 84136,
                   .handovers = 41508,
                   .location_updates = 41501,
                   .taus = 0,
                   .storms_flagged = 0,
                   .windows = 12000,
                   .cross_cell_messages = 41508});

  // perf_city's busy-hour configuration at 10k UEs, seed 1.
  CityConfig busy;
  busy.ues = 10'000;
  busy.cells = std::max<std::uint32_t>(16, busy.ues / 250);
  busy.horizon = Minutes(10);
  busy.seed = 1;
  busy.activity_mean_s = 30.0;
  busy.paging_mean_s = 45.0;
  busy.dwell_mean_s = 60.0;
  busy.sample_every = std::max<std::uint32_t>(1, busy.ues / 64);
  ExpectPinned(busy, Pin{.digest = 2632944110121097472ull,
                         .events_executed = 899505,
                         .stale_events = 4044,
                         .attaches_started = 10732,
                         .attaches_completed = 10000,
                         .attaches_rejected = 0,
                         .guard_expiries = 1056,
                         .backoffs_armed = 0,
                         .sessions = 230424,
                         .pagings = 162556,
                         .handovers = 82221,
                         .location_updates = 82216,
                         .taus = 0,
                         .storms_flagged = 0,
                         .windows = 12000,
                         .cross_cell_messages = 82221});
}

}  // namespace
}  // namespace cnv::stack
