#include "stack/city.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

namespace cnv::stack {

namespace {

// Event kinds packed into the payload's top byte.
enum : std::uint8_t {
  kAttachStart = 1,  // UE powers on / retries registration
  kAttachDone,       // attach processing finished (success or soft fail)
  kGuardExpiry,      // procedure guard timer (T3410/T3430-class) fired
  kBackoffDone,      // T3346 congestion backoff elapsed
  kActivity,         // UE-originated session begins
  kActivityDone,     // session teardown
  kPaging,           // network-originated page
  kMove,             // dwell elapsed: hand over to the next cell on the route
  kArrive,           // handover arrival in the target cell (cross-cell msg)
  kLuDone,           // location-update processing finished
  kTau,              // periodic tracking-area update timer fired
  kTauDone,          // TAU processing finished
};

constexpr std::uint64_t Pack(std::uint8_t kind, std::uint32_t ue,
                             std::uint16_t tag) {
  return (std::uint64_t{kind} << 56) | (std::uint64_t{ue} << 16) | tag;
}
constexpr std::uint8_t KindOf(std::uint64_t p) {
  return static_cast<std::uint8_t>(p >> 56);
}
constexpr std::uint32_t UeOf(std::uint64_t p) {
  return static_cast<std::uint32_t>((p >> 16) & 0xFFFFFFFFull);
}
constexpr std::uint16_t TagOf(std::uint64_t p) {
  return static_cast<std::uint16_t>(p & 0xFFFF);
}

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint16_t LoadTag(const std::atomic<std::uint16_t>* a, std::uint32_t i) {
  return a[i].load(std::memory_order_relaxed);
}

std::uint16_t BumpTag(std::atomic<std::uint16_t>* a, std::uint32_t i) {
  const auto v =
      static_cast<std::uint16_t>(a[i].load(std::memory_order_relaxed) + 1);
  a[i].store(v, std::memory_order_relaxed);
  return v;
}

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// MM states.
enum : std::uint8_t { kDereg = 0, kAttaching, kRegistered, kBackoff };

// The busy-hour shape: the attach front starts at kStormStart with
// exponential arrivals of mean kStormRamp, and session/paging intensity
// peaks at kBusyBoost times the off-peak rate.
constexpr SimTime kStormStart = Seconds(5);
constexpr SimTime kStormRamp = Seconds(30);
constexpr double kBusyBoost = 3.0;
// Every kHotspotEvery-th cell is a drive-route junction: mobility draws are
// biased toward these cells, concentrating location-update load (paper
// Fig. 7).
constexpr std::uint32_t kHotspotEvery = 16;

const CityConfig& Validated(const CityConfig& cfg) {
  // No UEs would make bytes_per_ue NaN; no cells, a division by zero.
  if (cfg.ues == 0) {
    throw std::invalid_argument("CityConfig: ues must be > 0");
  }
  if (cfg.cells == 0) {
    throw std::invalid_argument("CityConfig: cells must be > 0");
  }
  return cfg;
}

}  // namespace

CityEngine::CityEngine(const CityConfig& cfg, CityKernelMode)
    : cfg_(Validated(cfg)),
      shards_(cfg.cells),
      resume_(cfg.cells, 0),
      stalls_(cfg.cells, 0),
      out_flag_(cfg.cells, 0),
      trace_flag_(cfg.cells, 0) {
  mm_ = arena_.AllocArray<std::uint8_t>(cfg_.ues);
  sess_ = arena_.AllocArray<std::uint8_t>(cfg_.ues);
  bearers_ = arena_.AllocArray<std::uint8_t>(cfg_.ues);
  epoch_ = arena_.AllocArray<std::atomic<std::uint16_t>>(cfg_.ues);
  ggen_ = arena_.AllocArray<std::atomic<std::uint16_t>>(cfg_.ues);
  cell_ = arena_.AllocArray<std::uint32_t>(cfg_.ues);
  draws_ = arena_.AllocArray<std::uint32_t>(cfg_.ues);
  for (std::uint32_t c = 0; c < cfg_.cells; ++c) {
    shards_[c].sink = std::make_unique<trace::SamplingSink>(
        cfg_.sample_every, cfg_.seed,
        [this, c](const trace::TraceRecord& r) {
          shards_[c].tracebuf.push_back(r);
          trace_flag_[c] = 1;
        });
    shards_[c].wheel.SetReaper(&CityEngine::ReapDead, this);
  }

  // Busy-hour intensity, tabulated per simulated second: a Gaussian bump
  // centered shortly after the attach front, relaxing to the off-peak mean.
  const double center =
      ToSeconds(kStormStart) + 2.0 * ToSeconds(kStormRamp);
  const double width = std::max(4.0 * ToSeconds(kStormRamp), 120.0);
  const auto seconds = static_cast<std::size_t>(
      std::min<SimTime>(cfg_.horizon / kSecond + 2, 4 * 3600));
  intensity_.resize(seconds);
  for (std::size_t sec = 0; sec < seconds; ++sec) {
    const double x = (static_cast<double>(sec) - center) / width;
    intensity_[sec] = 1.0 + (kBusyBoost - 1.0) * std::exp(-x * x);
  }
}

bool CityEngine::ReapDead(void* ctx, std::uint64_t payload) {
  auto* self = static_cast<CityEngine*>(ctx);
  const std::uint32_t ue = UeOf(payload);
  const std::uint16_t want = KindOf(payload) == kGuardExpiry
                                 ? LoadTag(self->ggen_, ue)
                                 : LoadTag(self->epoch_, ue);
  return TagOf(payload) != want;
}

CityEngine::~CityEngine() = default;

double CityEngine::UnitDraw(std::uint32_t ue) {
  const std::uint64_t x =
      (std::uint64_t{ue} << 32) | draws_[ue]++;
  const std::uint64_t h = SplitMix(x ^ (cfg_.seed * 0x9e3779b97f4a7c15ull));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

SimTime CityEngine::ExpDraw(std::uint32_t ue, double mean_seconds) {
  const double u = UnitDraw(ue);
  const double d = -mean_seconds * std::log(1.0 - u);
  const SimTime t = FromSeconds(d);
  return t < 1 ? 1 : t;
}

void CityEngine::ScheduleUe(Shard& s, SimTime t, std::uint8_t kind,
                            std::uint32_t ue, std::uint16_t tag) {
  const std::uint64_t payload = Pack(kind, ue, tag);
  s.wheel.Schedule(t, s.next_seq++, payload);
  ++s.scheduled;
}

void CityEngine::Send(Shard& s, std::uint32_t dst, SimTime t,
                      std::uint8_t kind, std::uint32_t ue, std::uint16_t tag) {
  const std::uint64_t payload = Pack(kind, ue, tag);
  s.outbox.push_back(Msg{t, dst, s.id, s.msg_seq++, payload});
  out_flag_[s.id] = 1;
}

void CityEngine::ArmGuard(Shard& s, std::uint32_t ue, SimTime expiry) {
  const std::uint16_t g =
      static_cast<std::uint16_t>(ggen_[ue].load(std::memory_order_relaxed) + 1);
  ggen_[ue].store(g, std::memory_order_relaxed);
  ScheduleUe(s, expiry, kGuardExpiry, ue, g);
}

void CityEngine::CancelGuard(Shard& s, std::uint32_t ue) {
  // The pending expiry becomes a stale tombstone.
  ggen_[ue].store(
      static_cast<std::uint16_t>(ggen_[ue].load(std::memory_order_relaxed) + 1),
      std::memory_order_relaxed);
  ++s.cancelled;
}

void CityEngine::Execute(Shard& s, SimTime t, std::uint64_t payload) {
  ++s.executed;
  // Digest the executed stream: (time, kind, ue) in execution order.
  s.digest = (s.digest ^ static_cast<std::uint64_t>(t)) * kFnvPrime;
  s.digest = (s.digest ^ payload) * kFnvPrime;

  const std::uint8_t kind = KindOf(payload);
  const std::uint32_t ue = UeOf(payload);
  const std::uint16_t tag = TagOf(payload);
  // Tag check: guard expiries validate against the guard generation, every
  // other event against the UE's ownership epoch. A mismatch is a tombstone
  // — cancelled guard, superseded procedure, or a handed-over UE's old
  // timers — and costs exactly this comparison.
  const std::uint16_t want =
      (kind == kGuardExpiry) ? LoadTag(ggen_, ue) : LoadTag(epoch_, ue);
  if (tag != want) {
    ++s.c.stale_events;
    return;
  }
  Dispatch(s, t, kind, ue);
}

void CityEngine::Dispatch(Shard& s, SimTime t, std::uint8_t kind,
                          std::uint32_t ue) {
  switch (kind) {
    case kAttachStart: {
      if (mm_[ue] == kRegistered || mm_[ue] == kAttaching) break;
      // Storm detector: attach arrivals per wall second in this cell.
      const SimTime bucket = t / kSecond;
      if (bucket != s.storm_bucket) {
        s.storm_bucket = bucket;
        s.storm_arrivals = 0;
      }
      if (++s.storm_arrivals == cfg_.storm_threshold) {
        ++s.c.storms_flagged;
        trace::TraceRecord r;
        r.time = t;
        r.type = trace::TraceType::kEvent;
        r.system = nas::System::k4G;
        r.module = "STORM";
        r.description = "Mass attach storm begins (rate=" +
                        std::to_string(s.storm_arrivals) + "/s)";
        s.sink->EmitAlways(r);
      }
      ++s.c.attaches_started;
      if (s.attach_inflight >= cfg_.attach_capacity) {
        // MME overload: reject into T3346 congestion backoff (15-30 min —
        // deep wheel tiers by design).
        ++s.c.attaches_rejected;
        ++s.c.backoffs_armed;
        mm_[ue] = kBackoff;
        const SimTime backoff =
            Minutes(15) + static_cast<SimTime>(UnitDraw(ue) * Minutes(15));
        ScheduleUe(s, t + backoff, kBackoffDone, ue, LoadTag(epoch_, ue));
        Trace(s, t, ue, trace::TraceType::kState, "EMM", [backoff] {
          return "T3346 armed (" + std::to_string(backoff / kSecond) +
                 "s congestion backoff)";
        });
        break;
      }
      mm_[ue] = kAttaching;
      ++s.attach_inflight;
      ArmGuard(s, ue, t + Seconds(15));  // T3410
      // A stalled attach (lost response) outlives its guard.
      const bool stalled = UnitDraw(ue) < 0.05;
      const SimTime proc =
          stalled ? Seconds(20) + ExpDraw(ue, 10.0)
                  : Millis(50) + ExpDraw(ue, 0.4);
      ScheduleUe(s, t + proc, kAttachDone, ue, LoadTag(epoch_, ue));
      Trace(s, t, ue, trace::TraceType::kMsg, "EMM",
            [] { return std::string("Attach request"); });
      break;
    }
    case kAttachDone: {
      CancelGuard(s, ue);
      if (s.attach_inflight > 0) --s.attach_inflight;
      if (UnitDraw(ue) < 0.02) {
        // Soft failure: retry shortly.
        mm_[ue] = kDereg;
        ScheduleUe(s, t + Seconds(1) + ExpDraw(ue, 2.0), kAttachStart, ue,
                   epoch_[ue]);
        break;
      }
      mm_[ue] = kRegistered;
      if (bearers_[ue] < 255) ++bearers_[ue];
      ++s.c.attaches_completed;
      Trace(s, t, ue, trace::TraceType::kState, "EMM",
            [] { return std::string("Attach complete, EMM-REGISTERED"); });
      const std::uint16_t e = LoadTag(epoch_, ue);
      ScheduleUe(s, t + ExpDraw(ue, cfg_.activity_mean_s / Intensity(t)),
                 kActivity, ue, e);
      ScheduleUe(s, t + ExpDraw(ue, cfg_.paging_mean_s / Intensity(t)),
                 kPaging, ue, e);
      ScheduleUe(s, t + ExpDraw(ue, cfg_.dwell_mean_s), kMove, ue, e);
      // Periodic TAU: 30-120 min, landing in the top tier or the calendar.
      const SimTime tau =
          Minutes(30) + static_cast<SimTime>(UnitDraw(ue) * Minutes(90));
      ScheduleUe(s, t + tau, kTau, ue, e);
      break;
    }
    case kGuardExpiry: {
      ++s.c.guard_expiries;
      if (mm_[ue] == kAttaching) {
        // T3410 expiry: the stalled attach is abandoned; the epoch bump
        // tombstones the in-flight kAttachDone before the retry.
        if (s.attach_inflight > 0) --s.attach_inflight;
        mm_[ue] = kDereg;
        ScheduleUe(s, t + Seconds(2) + ExpDraw(ue, 4.0), kAttachStart, ue,
                   BumpTag(epoch_, ue));
      } else if (sess_[ue]) {
        sess_[ue] = 0;
        ScheduleUe(s, t + ExpDraw(ue, cfg_.activity_mean_s / Intensity(t)),
                   kActivity, ue, LoadTag(epoch_, ue));
      }
      break;
    }
    case kBackoffDone: {
      if (mm_[ue] != kBackoff) break;
      mm_[ue] = kDereg;
      ScheduleUe(s, t + static_cast<SimTime>(UnitDraw(ue) * Seconds(5)) + 1,
                 kAttachStart, ue, LoadTag(epoch_, ue));
      break;
    }
    case kActivity: {
      if (mm_[ue] != kRegistered || sess_[ue]) break;
      sess_[ue] = 1;
      ++s.c.sessions;
      ArmGuard(s, ue, t + Seconds(5));
      ScheduleUe(s, t + Millis(100) + ExpDraw(ue, 0.8), kActivityDone, ue,
                 epoch_[ue]);
      break;
    }
    case kActivityDone: {
      CancelGuard(s, ue);
      sess_[ue] = 0;
      ScheduleUe(s, t + ExpDraw(ue, cfg_.activity_mean_s / Intensity(t)),
                 kActivity, ue, LoadTag(epoch_, ue));
      break;
    }
    case kPaging: {
      if (mm_[ue] == kRegistered) {
        ++s.c.pagings;
        Trace(s, t, ue, trace::TraceType::kMsg, "EMM",
              [] { return std::string("Paging, S-TMSI"); });
      }
      ScheduleUe(s, t + ExpDraw(ue, cfg_.paging_mean_s / Intensity(t)),
                 kPaging, ue, LoadTag(epoch_, ue));
      break;
    }
    case kMove: {
      if (mm_[ue] != kRegistered || sess_[ue]) {
        // Mid-procedure or not registered: try again after a short dwell.
        ScheduleUe(s, t + ExpDraw(ue, cfg_.dwell_mean_s / 4.0), kMove, ue,
                   epoch_[ue]);
        break;
      }
      // Route model: mostly the next cell on the ring road, with a bias
      // toward drive-route junction cells (the LU hotspots of Fig. 7).
      std::uint32_t dst;
      const double r = UnitDraw(ue);
      const std::uint32_t hotspots =
          std::max<std::uint32_t>(1, cfg_.cells / kHotspotEvery);
      if (r < 0.3) {
        dst = static_cast<std::uint32_t>(UnitDraw(ue) * hotspots) *
              kHotspotEvery % cfg_.cells;
      } else if (r < 0.65) {
        dst = (cell_[ue] + 1) % cfg_.cells;
      } else {
        dst = (cell_[ue] + cfg_.cells - 1) % cfg_.cells;
      }
      if (dst == cell_[ue]) dst = (dst + 1) % cfg_.cells;
      ++s.c.handovers;
      // The epoch bump tombstones every timer the UE holds in this cell;
      // the arrival re-establishes its chains in the target cell after one
      // lookahead of signalling latency.
      BumpTag(ggen_, ue);
      Send(s, dst, t + kLookahead, kArrive, ue, BumpTag(epoch_, ue));
      break;
    }
    case kArrive: {
      cell_[ue] = s.id;
      ++s.c.location_updates;
      ArmGuard(s, ue, t + Seconds(10));  // T3430-class LU guard
      ScheduleUe(s, t + Millis(20) + ExpDraw(ue, 0.2), kLuDone, ue,
                 epoch_[ue]);
      Trace(s, t, ue, trace::TraceType::kMsg, "EMM", [&s] {
        return "Tracking area update request (cell=" + std::to_string(s.id) +
               ")";
      });
      break;
    }
    case kLuDone: {
      CancelGuard(s, ue);
      const std::uint16_t e = LoadTag(epoch_, ue);
      ScheduleUe(s, t + ExpDraw(ue, cfg_.activity_mean_s / Intensity(t)),
                 kActivity, ue, e);
      ScheduleUe(s, t + ExpDraw(ue, cfg_.paging_mean_s / Intensity(t)),
                 kPaging, ue, e);
      ScheduleUe(s, t + ExpDraw(ue, cfg_.dwell_mean_s), kMove, ue, e);
      const SimTime tau =
          Minutes(30) + static_cast<SimTime>(UnitDraw(ue) * Minutes(90));
      ScheduleUe(s, t + tau, kTau, ue, e);
      break;
    }
    case kTau: {
      if (mm_[ue] != kRegistered) break;
      ++s.c.taus;
      ArmGuard(s, ue, t + Seconds(10));
      ScheduleUe(s, t + Millis(20) + ExpDraw(ue, 0.2), kTauDone, ue,
                 epoch_[ue]);
      Trace(s, t, ue, trace::TraceType::kMsg, "EMM",
            [] { return std::string("Periodic TAU request"); });
      break;
    }
    case kTauDone: {
      CancelGuard(s, ue);
      const SimTime tau =
          Minutes(30) + static_cast<SimTime>(UnitDraw(ue) * Minutes(90));
      ScheduleUe(s, t + tau, kTau, ue, LoadTag(epoch_, ue));
      break;
    }
    default:
      break;
  }
}

void CityEngine::SeedPopulation() {
  for (std::uint32_t c = 0; c < cfg_.cells; ++c) shards_[c].id = c;
  const double uniform_span = 0.8 * ToSeconds(cfg_.horizon);
  for (std::uint32_t ue = 0; ue < cfg_.ues; ++ue) {
    cell_[ue] = ue % cfg_.cells;
    SimTime t0;
    if (UnitDraw(ue) < cfg_.storm_fraction) {
      t0 = kStormStart + ExpDraw(ue, ToSeconds(kStormRamp));
    } else {
      t0 = FromSeconds(UnitDraw(ue) * uniform_span);
    }
    if (t0 >= cfg_.horizon) t0 = cfg_.horizon - 1;
    ScheduleUe(shards_[cell_[ue]], t0, kAttachStart, ue, 0);
  }
}

void CityEngine::MergeWindow() {
  // Cross-cell deliveries: gather every outbox (cell order), then impose a
  // total order independent of which worker produced what. (dst, time, src
  // msg seq) is unique, so the sort is a permutation with one outcome.
  merge_scratch_.clear();
  for (std::uint32_t c = 0; c < cfg_.cells; ++c) {
    if (!out_flag_[c]) continue;  // most cells sent nothing this window
    out_flag_[c] = 0;
    Shard& s = shards_[c];
    merge_scratch_.insert(merge_scratch_.end(), s.outbox.begin(),
                          s.outbox.end());
    s.outbox.clear();
  }
  if (!merge_scratch_.empty()) {
    std::sort(merge_scratch_.begin(), merge_scratch_.end(),
              [](const Msg& a, const Msg& b) {
                return std::tie(a.dst, a.time, a.src, a.seq) <
                       std::tie(b.dst, b.time, b.src, b.seq);
              });
    cross_cell_messages_ += merge_scratch_.size();
    for (const Msg& m : merge_scratch_) {
      Shard& d = shards_[m.dst];
      d.wheel.Schedule(m.time, d.next_seq++, m.payload);
      ++d.scheduled;
      resume_[m.dst] = d.wheel.ResumeAt();
    }
  }
  FlushTraces();
}

void CityEngine::FlushTraces() {
  // Deterministic global trace order: (time, cell, in-cell order).
  struct Key {
    SimTime time;
    std::uint32_t cell;
    std::uint32_t idx;
  };
  std::vector<Key> keys;
  for (std::uint32_t c = 0; c < cfg_.cells; ++c) {
    if (!trace_flag_[c]) continue;  // sampled tracing: usually nothing
    for (std::uint32_t i = 0; i < shards_[c].tracebuf.size(); ++i) {
      keys.push_back(Key{shards_[c].tracebuf[i].time, c, i});
    }
  }
  if (keys.empty()) return;
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return std::tie(a.time, a.cell, a.idx) < std::tie(b.time, b.cell, b.idx);
  });
  if (trace_sink_) {
    for (const Key& k : keys) trace_sink_(shards_[k.cell].tracebuf[k.idx]);
  }
  for (std::uint32_t c = 0; c < cfg_.cells; ++c) {
    if (!trace_flag_[c]) continue;
    trace_flag_[c] = 0;
    shards_[c].tracebuf.clear();
  }
}

void CityEngine::RunWheel(par::WorkerPool* pool) {
  const auto advance = [this](std::size_t c, SimTime end) {
    // resume_[c] mirrors the wheel's lower bound on its next entry: a cell
    // whose next signalling lies beyond this window costs one array read.
    if (resume_[c] >= end) {
      ++stalls_[c];
      return;
    }
    Shard& s = shards_[c];
    s.wheel.DrainUntil(
        end - 1, [this, &s](const sim::WheelEntry& e) {
          Execute(s, e.time, e.payload);
        });
    resume_[c] = s.wheel.ResumeAt();
  };
  SimTime t = 0;
  while (t < cfg_.horizon) {
    const SimTime end = std::min(t + kLookahead, cfg_.horizon);
    if (pool != nullptr && pool->jobs() > 1) {
      pool->ParallelEach(cfg_.cells,
                         [&](int, std::size_t c) { advance(c, end); });
    } else {
      for (std::size_t c = 0; c < cfg_.cells; ++c) advance(c, end);
    }
    ++windows_;
    MergeWindow();
    t = end;
  }
}

CityReport CityEngine::BuildReport() const {
  CityReport r;
  std::uint64_t digest = 14695981039346656037ull;
  for (const Shard& s : shards_) {
    r.events_executed += s.executed;
    r.events_scheduled += s.scheduled;
    r.events_cancelled += s.cancelled;
    r.stale_events += s.c.stale_events;
    r.attaches_started += s.c.attaches_started;
    r.attaches_completed += s.c.attaches_completed;
    r.attaches_rejected += s.c.attaches_rejected;
    r.guard_expiries += s.c.guard_expiries;
    r.backoffs_armed += s.c.backoffs_armed;
    r.sessions += s.c.sessions;
    r.pagings += s.c.pagings;
    r.handovers += s.c.handovers;
    r.location_updates += s.c.location_updates;
    r.taus += s.c.taus;
    r.storms_flagged += s.c.storms_flagged;
    r.shard_stalls += stalls_[s.id];
    r.trace_emitted += s.sink->emitted();
    r.trace_dropped += s.sink->dropped();
    digest = (digest ^ s.digest) * kFnvPrime;
    const auto& ws = s.wheel.stats();
    for (int level = 0; level < sim::TimerWheel::kLevels; ++level) {
      r.wheel.inserts[level] += ws.inserts[level];
      r.wheel.occupancy[level] += ws.occupancy[level];
      r.wheel.peak_occupancy[level] += ws.peak_occupancy[level];
    }
    r.wheel.overflow_inserts += ws.overflow_inserts;
    r.wheel.overflow_occupancy += ws.overflow_occupancy;
    r.wheel.overflow_peak += ws.overflow_peak;
    r.wheel.cascaded += ws.cascaded;
    r.wheel.migrated += ws.migrated;
    r.wheel.sorted_ticks += ws.sorted_ticks;
    r.wheel.reaped += ws.reaped;
  }
  r.digest = digest;
  r.arena_bytes = arena_.TotalBytes();
  r.bytes_per_ue =
      static_cast<double>(arena_.TotalBytes()) / static_cast<double>(cfg_.ues);
  r.windows = windows_;
  r.cross_cell_messages = cross_cell_messages_;
  return r;
}

CityReport CityEngine::Run(par::WorkerPool* pool) {
  SeedPopulation();
  RunWheel(pool);
  return BuildReport();
}

}  // namespace cnv::stack
