// City-scale control-plane population engine. Where stack::Testbed walks one
// UE through full per-message protocol machinery, CityEngine drives an
// entire metropolitan population — up to a million UEs across thousands of
// cells — through the signalling workload the paper measures at operator
// scale: busy-hour attach fronts, paging load, location-update hotspots
// along drive routes, periodic TAU, and T3346 congestion backoff.
//
// Scale machinery:
//
//   * Struct-of-arrays UE/bearer state carved from one util Arena: a few
//     primitive arrays indexed by UE id, a fixed handful of bytes per UE,
//     no per-UE objects. CityReport::bytes_per_ue is measured, not
//     estimated.
//   * Per-cell event sharding: each cell owns a hierarchical TimerWheel,
//     an outbox, and its own FIFO sequence — no shared event queue.
//   * Conservative parallel discrete-event windows: cross-cell signalling
//     (handover/LU) takes CityEngine::kLookahead (50 ms) of latency, so all
//     cells can advance one lookahead window independently on a
//     par::WorkerPool.
//     Window barriers exchange outbox messages in a deterministically
//     sorted order; per-UE decisions come from counter-hash draws rather
//     than shared RNG streams. Result: byte-identical runs (digest, trace
//     stream, every counter) at any --jobs value.
//   * O(1) cancellation: pending events carry the owning UE's epoch (and
//     guard timers a guard generation); cancelling or handing over just
//     bumps the tag and lets stale entries fall out when their tick drains.
//   * Sampled tracing: a trace::SamplingSink admits 1-in-N UEs whose whole
//     protocol history is recorded; storm/overload onsets bypass sampling.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "par/pool.h"
#include "sim/wheel.h"
#include "trace/record.h"
#include "trace/sampler.h"
#include "util/arena.h"
#include "util/time.h"

namespace cnv::stack {

// CityEngine's constructor throws std::invalid_argument for a city with no
// UEs or no cells.
struct CityConfig {
  std::uint32_t ues = 10'000;
  std::uint32_t cells = 64;
  SimTime horizon = Minutes(10);
  std::uint64_t seed = 1;
  std::uint32_t sample_every = 1024;  // trace 1-in-N UEs

  // Time-of-day load model. A `storm_fraction` of the population powers on
  // in an exponential front early in the run (mass re-attach after an
  // outage / morning busy hour); the rest trickle in uniformly. Session and
  // paging intensity peaks mid-front and relaxes to the off-peak means
  // below. The front's timing, the peak and the drive-route hotspots are
  // fixed constants in city.cc.
  double storm_fraction = 0.7;
  double activity_mean_s = 60.0;  // off-peak think time between sessions
  double paging_mean_s = 90.0;
  double dwell_mean_s = 120.0;  // time in a cell before moving on

  // Overload model: a cell processing more than this many simultaneous
  // attaches rejects newcomers into T3346 backoff; this many attach
  // arrivals within one second flags a signalling storm in the trace.
  std::uint32_t attach_capacity = 64;
  std::uint32_t storm_threshold = 50;
};

// No longer selects anything: the sharded timer-wheel kernel is the only
// one. Kept because perfbench/bench.cc constructs engines with kWheel.
enum class CityKernelMode { kWheel };

struct CityReport {
  // Kernel accounting (summed over shards).
  std::uint64_t events_executed = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t stale_events = 0;  // epoch/generation-mismatched pops

  // Protocol accounting.
  std::uint64_t attaches_started = 0;
  std::uint64_t attaches_completed = 0;
  std::uint64_t attaches_rejected = 0;
  std::uint64_t guard_expiries = 0;
  std::uint64_t backoffs_armed = 0;
  std::uint64_t sessions = 0;
  std::uint64_t pagings = 0;
  std::uint64_t handovers = 0;
  std::uint64_t location_updates = 0;
  std::uint64_t taus = 0;
  std::uint64_t storms_flagged = 0;

  // Determinism digest over the executed event stream (per-shard FNV-1a,
  // combined in cell order). Byte-identical across --jobs values.
  std::uint64_t digest = 0;

  // Trace accounting.
  std::uint64_t trace_emitted = 0;
  std::uint64_t trace_dropped = 0;

  // Memory.
  std::size_t arena_bytes = 0;
  double bytes_per_ue = 0.0;

  // Parallel-window execution shape (deterministic at any job count).
  std::uint64_t windows = 0;
  std::uint64_t shard_stalls = 0;  // cell-windows skipped: no event due
  std::uint64_t cross_cell_messages = 0;

  // Wheel-tier usage aggregated over shards (peaks are
  // sums of per-shard peaks, an upper bound on the global peak).
  sim::TimerWheel::Stats wheel;
};

class CityEngine {
 public:
  // Cross-cell signalling latency; also the conservative window width.
  static constexpr SimTime kLookahead = Millis(50);

  explicit CityEngine(const CityConfig& cfg,
                      CityKernelMode = CityKernelMode::kWheel);
  ~CityEngine();
  CityEngine(const CityEngine&) = delete;
  CityEngine& operator=(const CityEngine&) = delete;

  // Receives the sampled trace stream in deterministic order. Optional;
  // records are counted either way.
  void set_trace_sink(std::function<void(const trace::TraceRecord&)> sink) {
    trace_sink_ = std::move(sink);
  }

  // Runs the population to cfg.horizon. `pool` may be null (serial); with a
  // pool, cells advance in parallel inside lookahead windows. Wheel-mode
  // results are byte-identical for any pool size.
  CityReport Run(par::WorkerPool* pool);

 private:
  struct Msg {
    SimTime time;
    std::uint32_t dst;
    std::uint32_t src;
    std::uint64_t seq;  // per-source counter; part of the merge sort key
    std::uint64_t payload;
  };

  struct Counters {
    std::uint64_t attaches_started = 0;
    std::uint64_t attaches_completed = 0;
    std::uint64_t attaches_rejected = 0;
    std::uint64_t guard_expiries = 0;
    std::uint64_t backoffs_armed = 0;
    std::uint64_t sessions = 0;
    std::uint64_t pagings = 0;
    std::uint64_t handovers = 0;
    std::uint64_t location_updates = 0;
    std::uint64_t taus = 0;
    std::uint64_t storms_flagged = 0;
    std::uint64_t stale_events = 0;
  };

  struct Shard {
    std::uint32_t id = 0;
    sim::TimerWheel wheel;
    std::uint64_t next_seq = 1;
    std::uint64_t msg_seq = 0;
    std::vector<Msg> outbox;
    std::vector<trace::TraceRecord> tracebuf;
    std::unique_ptr<trace::SamplingSink> sink;
    std::uint64_t digest = 14695981039346656037ull;  // FNV-1a offset basis
    std::uint64_t executed = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t cancelled = 0;
    std::uint32_t attach_inflight = 0;
    SimTime storm_bucket = -1;
    std::uint32_t storm_arrivals = 0;
    Counters c;
  };

  // Per-UE counter-hash draws: deterministic no matter which worker, cell,
  // or kernel executes the UE's events.
  double UnitDraw(std::uint32_t ue);
  SimTime ExpDraw(std::uint32_t ue, double mean_seconds);
  // Session/paging intensity multiplier at simulated time t (>= 1),
  // quantized per simulated second and served from a precomputed table.
  double Intensity(SimTime t) const {
    const auto s = static_cast<std::size_t>(t / kSecond);
    return intensity_[s < intensity_.size() ? s : intensity_.size() - 1];
  }

  // TimerWheel reaper: true when the entry's tag no longer matches the
  // owning UE's epoch / guard generation, so the wheel may drop it at the
  // first cascade or drain instead of carrying it to a sorted pop.
  static bool ReapDead(void* ctx, std::uint64_t payload);

  void SeedPopulation();
  void ScheduleUe(Shard& s, SimTime t, std::uint8_t kind, std::uint32_t ue,
                  std::uint16_t tag);
  void Send(Shard& s, std::uint32_t dst, SimTime t, std::uint8_t kind,
            std::uint32_t ue, std::uint16_t tag);
  void ArmGuard(Shard& s, std::uint32_t ue, SimTime expiry);
  void CancelGuard(Shard& s, std::uint32_t ue);
  void Execute(Shard& s, SimTime t, std::uint64_t payload);
  void Dispatch(Shard& s, SimTime t, std::uint8_t kind, std::uint32_t ue);
  // The description is built lazily — only for the 1-in-N admitted UEs —
  // so the un-sampled hot path never touches a std::string.
  template <class DescFn>
  void Trace(Shard& s, SimTime t, std::uint32_t ue, trace::TraceType type,
             const char* module, DescFn&& desc) {
    if (!s.sink->Admits(ue)) {
      s.sink->CountSuppressed(1);
      return;
    }
    trace::TraceRecord r;
    r.time = t;
    r.type = type;
    r.system = nas::System::k4G;
    r.module = module;
    r.description = desc();
    s.sink->EmitAlways(r);
  }

  void RunWheel(par::WorkerPool* pool);
  void MergeWindow();
  void FlushTraces();
  CityReport BuildReport() const;

  const CityConfig cfg_;
  std::function<void(const trace::TraceRecord&)> trace_sink_;

  Arena arena_;
  // UE struct-of-arrays (arena-backed, zero-initialized).
  std::uint8_t* mm_ = nullptr;       // 0 dereg, 1 attaching, 2 registered, 3 backoff
  std::uint8_t* sess_ = nullptr;     // in an active session
  std::uint8_t* bearers_ = nullptr;  // active EPS bearers
  // Tag arrays are written only by the UE's owning shard, but a handed-over
  // UE's tombstoned timers can pop in the old cell concurrently — relaxed
  // atomics make that read clean. Tags only ever grow, so a racing stale
  // check reaches the same (mismatch) verdict whichever value it sees.
  std::atomic<std::uint16_t>* epoch_ = nullptr;  // invalidates pending events
  std::atomic<std::uint16_t>* ggen_ = nullptr;   // invalidates the armed guard
  std::uint32_t* cell_ = nullptr;
  std::uint32_t* draws_ = nullptr;   // counter-hash draw index

  std::vector<Shard> shards_;
  std::vector<double> intensity_;  // per-second busy-hour multiplier table

  // Compact per-cell mirrors scanned by the window loop. The serial driver
  // visits every cell every window; reading these few cache lines instead
  // of the fat Shard structs makes an idle cell cost a flag test. Each slot
  // is written only by its cell's owning worker (or the serial barrier), so
  // parallel windows stay race-free.
  std::vector<SimTime> resume_;           // mirror of wheel.ResumeAt()
  std::vector<std::uint64_t> stalls_;     // windows skipped per cell
  std::vector<std::uint8_t> out_flag_;    // outbox non-empty
  std::vector<std::uint8_t> trace_flag_;  // tracebuf non-empty
  std::vector<Msg> merge_scratch_;
  std::uint64_t windows_ = 0;
  std::uint64_t cross_cell_messages_ = 0;
};

}  // namespace cnv::stack
