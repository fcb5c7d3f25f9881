// City-scale engine suite: determinism, kernel equivalence, and memory
// bounds for the population-scale discrete-event core.
//
//   * Serial-vs-parallel byte-identity: the same config run with no pool
//     and with a WorkerPool must produce the same digest, the same counter
//     block, and the same trace stream, record for record.
//   * Wheel-vs-heap equivalence: on the workload the seed binary-heap
//     kernel ran before its removal, every protocol counter and the
//     productive event count must equal the outcomes it recorded.
//   * Struct-of-arrays footprint: bytes/UE is measured off the arena and
//     must stay small and flat as the population grows.
//   * Overload model: a capacity-starved config must reject attaches into
//     T3346 backoff and flag signalling storms in the always-on trace.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "par/pool.h"
#include "stack/city.h"
#include "trace/record.h"

namespace cnv::stack {
namespace {

CityConfig SmallCity(std::uint32_t ues = 20'000) {
  CityConfig cfg;
  cfg.ues = ues;
  cfg.cells = 64;
  cfg.horizon = Minutes(3);
  cfg.seed = 7;
  cfg.sample_every = 512;
  return cfg;
}

struct Capture {
  CityReport report;
  std::vector<trace::TraceRecord> records;
};

Capture RunCapture(const CityConfig& cfg, CityKernelMode mode,
                   par::WorkerPool* pool) {
  Capture cap;
  CityEngine eng(cfg, mode);
  eng.set_trace_sink(
      [&cap](const trace::TraceRecord& r) { cap.records.push_back(r); });
  cap.report = eng.Run(pool);
  return cap;
}

void ExpectCountersEqual(const CityReport& a, const CityReport& b) {
  EXPECT_EQ(a.attaches_started, b.attaches_started);
  EXPECT_EQ(a.attaches_completed, b.attaches_completed);
  EXPECT_EQ(a.attaches_rejected, b.attaches_rejected);
  EXPECT_EQ(a.guard_expiries, b.guard_expiries);
  EXPECT_EQ(a.backoffs_armed, b.backoffs_armed);
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.pagings, b.pagings);
  EXPECT_EQ(a.handovers, b.handovers);
  EXPECT_EQ(a.location_updates, b.location_updates);
  EXPECT_EQ(a.taus, b.taus);
  EXPECT_EQ(a.storms_flagged, b.storms_flagged);
}

TEST(CityDeterminismTest, SerialAndParallelAreByteIdentical) {
  const CityConfig cfg = SmallCity();
  const Capture serial = RunCapture(cfg, CityKernelMode::kWheel, nullptr);
  par::WorkerPool pool(4);
  const Capture parallel = RunCapture(cfg, CityKernelMode::kWheel, &pool);

  EXPECT_EQ(serial.report.digest, parallel.report.digest);
  EXPECT_EQ(serial.report.events_executed, parallel.report.events_executed);
  EXPECT_EQ(serial.report.events_scheduled, parallel.report.events_scheduled);
  EXPECT_EQ(serial.report.stale_events, parallel.report.stale_events);
  EXPECT_EQ(serial.report.shard_stalls, parallel.report.shard_stalls);
  EXPECT_EQ(serial.report.cross_cell_messages,
            parallel.report.cross_cell_messages);
  EXPECT_EQ(serial.report.trace_emitted, parallel.report.trace_emitted);
  EXPECT_EQ(serial.report.trace_dropped, parallel.report.trace_dropped);
  ExpectCountersEqual(serial.report, parallel.report);

  // The trace stream — the externally visible artifact — must match record
  // for record, not just in count.
  ASSERT_EQ(serial.records.size(), parallel.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    ASSERT_EQ(serial.records[i], parallel.records[i]) << "record " << i;
  }
}

TEST(CityDeterminismTest, RepeatedRunsAreByteIdentical) {
  const CityConfig cfg = SmallCity(10'000);
  const Capture a = RunCapture(cfg, CityKernelMode::kWheel, nullptr);
  const Capture b = RunCapture(cfg, CityKernelMode::kWheel, nullptr);
  EXPECT_EQ(a.report.digest, b.report.digest);
  EXPECT_EQ(a.records.size(), b.records.size());
}

TEST(CityDeterminismTest, SeedChangesTheRun) {
  CityConfig cfg = SmallCity(10'000);
  const Capture a = RunCapture(cfg, CityKernelMode::kWheel, nullptr);
  cfg.seed = 8;
  const Capture b = RunCapture(cfg, CityKernelMode::kWheel, nullptr);
  EXPECT_NE(a.report.digest, b.report.digest);
}

TEST(CityKernelTest, WheelMatchesHeapOnProtocolOutcomes) {
  // What the retired single-heap kernel produced on this workload, recorded
  // before it was deleted. Tombstone handling differs by design (the heap
  // popped what the wheel reaps), so executed counts differ — but the
  // productive event stream and every protocol outcome must agree exactly.
  CityReport heap;
  heap.attaches_started = 10765;
  heap.attaches_completed = 9974;
  heap.guard_expiries = 682;
  heap.sessions = 56511;
  heap.pagings = 39686;
  heap.handovers = 10716;
  heap.location_updates = 10713;
  constexpr std::uint64_t kHeapProductiveEvents = 206594;
  constexpr std::uint64_t kHeapTraceEmitted = 160;

  const Capture wheel =
      RunCapture(SmallCity(10'000), CityKernelMode::kWheel, nullptr);
  EXPECT_EQ(wheel.report.events_executed - wheel.report.stale_events,
            kHeapProductiveEvents);
  ExpectCountersEqual(wheel.report, heap);
  EXPECT_EQ(wheel.report.trace_emitted, kHeapTraceEmitted);
}

TEST(CityKernelTest, WheelStatsAccountForTheRun) {
  const CityConfig cfg = SmallCity();
  const Capture cap = RunCapture(cfg, CityKernelMode::kWheel, nullptr);
  const auto& w = cap.report.wheel;
  std::uint64_t inserts = w.overflow_inserts;
  for (int l = 0; l < sim::TimerWheel::kLevels; ++l) inserts += w.inserts[l];
  EXPECT_GT(inserts, cap.report.events_executed / 2);
  EXPECT_GT(w.sorted_ticks, 0u);
  // Guard cancellations must show up as reaped or stale, and the reaper
  // should keep the stale tail small relative to cancellations.
  EXPECT_GT(w.reaped, 0u);
  EXPECT_LT(cap.report.stale_events, cap.report.events_cancelled);
  // Windows advanced to the horizon.
  EXPECT_EQ(cap.report.windows,
            static_cast<std::uint64_t>(
                (cfg.horizon + CityEngine::kLookahead - 1) /
                CityEngine::kLookahead));
}

TEST(CityMemoryTest, BytesPerUeIsSmallAndFlat) {
  const Capture small = RunCapture(SmallCity(10'000),
                                   CityKernelMode::kWheel, nullptr);
  const Capture big = RunCapture(SmallCity(40'000),
                                 CityKernelMode::kWheel, nullptr);
  // Struct-of-arrays per-UE state is a handful of primitive fields; the
  // arena measurement must stay well under 64 B/UE and must not grow with
  // the population (arena chunk slack shrinks relatively as UEs grow).
  EXPECT_GT(small.report.bytes_per_ue, 0.0);
  EXPECT_LT(small.report.bytes_per_ue, 64.0);
  EXPECT_LE(big.report.bytes_per_ue, small.report.bytes_per_ue * 1.5);
  EXPECT_GT(big.report.arena_bytes, 0u);
}

TEST(CityOverloadTest, CapacityStarvedCellsRejectIntoBackoffAndFlagStorms) {
  CityConfig cfg = SmallCity(20'000);
  cfg.cells = 16;             // concentrate the attach front
  cfg.attach_capacity = 8;    // starve admission
  cfg.storm_threshold = 30;
  cfg.storm_fraction = 0.9;
  cfg.sample_every = 1;       // record everything: assertions read the trace
  const Capture cap = RunCapture(cfg, CityKernelMode::kWheel, nullptr);

  EXPECT_GT(cap.report.attaches_rejected, 0u);
  EXPECT_GT(cap.report.backoffs_armed, 0u);
  EXPECT_GT(cap.report.storms_flagged, 0u);

  bool saw_backoff = false;
  bool saw_storm = false;
  for (const auto& r : cap.records) {
    if (r.description.find("T3346 armed") != std::string::npos) {
      saw_backoff = true;
    }
    if (r.module == "STORM" &&
        r.description.find("storm begins") != std::string::npos) {
      saw_storm = true;
    }
  }
  EXPECT_TRUE(saw_backoff) << "no T3346 record in the trace";
  EXPECT_TRUE(saw_storm) << "no storm-onset record in the trace";
}

TEST(CityConfigTest, RejectsAnEmptyCity) {
  CityConfig no_cells;
  no_cells.cells = 0;
  EXPECT_THROW(CityEngine{no_cells}, std::invalid_argument);
  CityConfig no_ues;
  no_ues.ues = 0;
  EXPECT_THROW(CityEngine{no_ues}, std::invalid_argument);
  // One UE in one cell is the smallest city.
  CityConfig tiny = SmallCity(1);
  tiny.cells = 1;
  EXPECT_GT(CityEngine(tiny).Run(nullptr).bytes_per_ue, 0.0);
}

}  // namespace
}  // namespace cnv::stack
