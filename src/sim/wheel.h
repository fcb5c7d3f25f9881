// Hierarchical timer wheel: the per-cell shard queue of the city engine
// (stack::CityEngine), where hundreds of thousands of UEs keep millions of
// events in flight. The single-UE testbed kernel (sim::Simulator) keeps
// tens of events in flight and runs on a plain binary heap instead.
//
// Layout (microsecond timestamps, ~1.05 s level-0 ticks):
//
//   level 0   256 slots x 2^20 us (~1.05 s)    horizon  ~4.5 min
//   level 1    64 slots x 2^28 us (~4.5 min)   horizon  ~4.8 h
//   level 2    16 slots x 2^34 us (~4.8 h)     horizon ~76.4 h
//   overflow   calendar buckets of 2^31 us, for far-future guard timers
//              (T3412 periodic TAU, long T3346 congestion backoff, ...)
//
// The tick width is tuned to the control-plane delay profile: procedure
// completions (tens of ms to seconds) and the activity / paging / dwell
// inter-arrivals that dominate a busy hour (up to a few minutes) all
// insert straight into level 0 and are touched exactly once; periodic-TAU
// class guard timers (tens of minutes) sit one level up and cascade once.
// The seed design's 1 us ticks made the same entries walk four or five
// levels. A tick spanning ~1 s of simulated time is safe because a drained
// slot is sorted before popping (see the ordering contract below) — the
// coarser the tick, the more of the queue discipline shifts into that one
// cheap sort, and the fewer slots FindNextTick has to scan.
//
// Scheduling is O(1): pick the smallest level whose horizon covers the
// delay, index by the absolute expiry time. When virtual time crosses into
// an occupied higher-level slot, its entries cascade down; per-level
// occupancy bitmaps let the wheel jump straight from event to event instead
// of walking empty ticks, so sparse hours cost the same as dense ones.
// Entries beyond the top-level horizon wait in the calendar overflow tier
// and migrate into the wheels as time approaches.
//
// Ordering contract: entries pop in exact (time, seq) lexicographic order —
// byte-identical to the retired binary-heap kernel (tests/heap_ref.h), FIFO
// tie-break at equal timestamps included. A draining level-0 slot spans
// many timestamps, so the drain buffer is sorted by (time, seq); a handler
// that schedules back into the tick currently draining parks its entry in
// a small side heap which every pop weighs against the drain head, keeping
// the contract exact even for zero-delay self-schedules.
//
// The wheel knows nothing about cancellation: a 64-bit payload travels with
// every entry, and callers that need O(1) cancel tag payloads with a
// generation and simply ignore stale entries when they pop (see
// stack::CityEngine). That is what removes the seed kernel's
// `unordered_set` tombstone hashing from the hot path. Callers may
// additionally install a *reaper* — a predicate over payloads — and the
// wheel then drops dead entries the next time it touches them (cascade,
// calendar migration, or drain load) instead of carrying them all the way
// to a sorted pop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <queue>
#include <vector>

#include "util/time.h"

namespace cnv::sim {

struct WheelEntry {
  SimTime time = 0;
  std::uint64_t seq = 0;      // global FIFO tie-break for equal timestamps
  std::uint64_t payload = 0;  // opaque to the wheel
};

class TimerWheel {
 public:
  static constexpr int kLevels = 3;
  static constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();

  // Returns true when the entry carrying `payload` is dead and may be
  // dropped without ever popping. Must be stable: once true, always true.
  using Reaper = bool (*)(void* ctx, std::uint64_t payload);

  // Cumulative + current occupancy accounting, harvested by the telemetry
  // layer. Everything here is deterministic (event counts, not wall clock).
  struct Stats {
    std::uint64_t inserts[kLevels] = {};  // entries placed per tier
    std::uint64_t overflow_inserts = 0;   // entries placed in the calendar
    std::uint64_t cascaded = 0;           // entries moved down a tier
    std::uint64_t migrated = 0;           // calendar entries pulled into wheels
    std::uint64_t sorted_ticks = 0;       // level-0 slots drained (and sorted)
    std::uint64_t reaped = 0;             // dead entries dropped pre-pop
    std::size_t occupancy[kLevels] = {};  // entries currently per tier
    std::size_t overflow_occupancy = 0;
    std::size_t peak_occupancy[kLevels] = {};
    std::size_t overflow_peak = 0;
  };

  TimerWheel() = default;
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Inserts an entry. `seq` values must be unique; entries pop in (time,
  // seq) order whatever order they were inserted in. `t` may lag the
  // wheel position (the caller's clock can sit behind it after cancelled
  // stragglers drain); such entries park in a small side heap and still pop
  // in exact (time, seq) order.
  //
  // Kept inline: the level-0 fast path below covers the overwhelming bulk
  // of schedules (every delay under the level-0 horizon), and at millions
  // of schedules per second the call saved matters.
  void Schedule(SimTime t, std::uint64_t seq, std::uint64_t payload) {
    ++size_;
    if (t < resume_at_) resume_at_ = t;
    const SimTime tick = t >> kShift[0];
    if (t >= pos_ && t - pos_ < Horizon(0) && tick != drained_tick_)
        [[likely]] {
      const int slot = static_cast<int>(tick & 255);
      slots0_[slot].push_back(WheelEntry{t, seq, payload});
      bitmap0_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
      ++stats_.inserts[0];
      if (++stats_.occupancy[0] > stats_.peak_occupancy[0]) {
        stats_.peak_occupancy[0] = stats_.occupancy[0];
      }
      return;
    }
    ScheduleSlow(t, seq, payload);
  }

  // Pops the earliest entry (by (time, seq)) with time <= limit into *out.
  // Returns false — touching nothing — when no such entry exists. The wheel
  // position only ever advances to ticks that actually hold entries.
  bool PopUntil(SimTime limit, WheelEntry* out);

  // Pops every entry with time <= limit, in exact (time, seq) order,
  // invoking fn(entry) for each. Equivalent to a PopUntil loop but keeps
  // the drain fast path inline — the per-event branch chain matters at
  // millions of events per second. fn may schedule back into the wheel.
  template <class Fn>
  void DrainUntil(SimTime limit, Fn&& fn) {
    for (;;) {
      if (past_.empty()) [[likely]] {
        while (past_.empty() && drain_pos_ < drain_.size()) {
          const WheelEntry e = drain_[drain_pos_];  // fn may push into past_
          if (e.time > limit) {
            resume_at_ = e.time;
            return;
          }
          ++drain_pos_;
          --size_;
          fn(e);
        }
        if (!past_.empty()) continue;
        const SimTime tick = pos_ >> kShift[0];
        if (tick != drained_tick_ && !slots0_[tick & 255].empty()) {
          if (pos_ > limit) {
            resume_at_ = pos_;
            return;
          }
          LoadDrainSlot();
          continue;
        }
        if (FindNextTick(limit) == kNoEvent) return;
        LoadDrainSlot();
        continue;
      }
      WheelEntry e;  // rare path: entries parked behind the position
      if (!PopUntil(limit, &e)) return;
      fn(e);
    }
  }

  // Installs (or clears, with nullptr) the dead-entry predicate. Reaped
  // entries leave Size() silently; only stats().reaped records them.
  void SetReaper(Reaper reaper, void* ctx) {
    reaper_ = reaper;
    reaper_ctx_ = ctx;
  }

  // Lower bound on the earliest pending entry's time, valid after a
  // PopUntil that returned false. Never later than the true next event, so
  // a driver may skip the shard until its window reaches this time. Fresh
  // schedules pull it back; an empty wheel reports kNoEvent.
  SimTime ResumeAt() const { return resume_at_; }

  bool Empty() const { return size_ == 0; }
  std::size_t Size() const { return size_; }
  const Stats& stats() const { return stats_; }

 private:
  static constexpr int kShift[kLevels] = {20, 28, 34};
  static constexpr int kBits[kLevels] = {8, 6, 4};
  // Slot width and level horizon, in microseconds.
  static constexpr SimTime Width(int level) {
    return SimTime{1} << kShift[level];
  }
  static constexpr SimTime Horizon(int level) {
    return SimTime{1} << (kShift[level] + kBits[level]);
  }
  // Calendar buckets are far narrower than the top horizon, so a whole
  // bucket fits under the wheels' horizon by the time its migration
  // boundary (one bucket width ahead of the bucket start) passes.
  static constexpr int kBucketShift = 31;

  struct SeqGreater {
    bool operator()(const WheelEntry& a, const WheelEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  bool Dead(const WheelEntry& e) const {
    return reaper_ != nullptr && reaper_(reaper_ctx_, e.payload);
  }

  // Past-position, overflow, drained-tick, and higher-level cases the
  // inline Schedule fast path punts on.
  void ScheduleSlow(SimTime t, std::uint64_t seq, std::uint64_t payload);
  void Insert(const WheelEntry& e);  // into wheels; t - pos_ must be < top horizon
  void CascadeSlot(int level, int slot);
  void MigrateHeadBucket();
  void LoadDrainSlot();  // moves the level-0 slot at pos_ into drain_
  // Advances pos_ (with cascades) to the start of the next level-0 tick
  // <= limit that holds entries; returns that tick start or kNoEvent (the
  // position never advances past `limit` or past pending entries).
  SimTime FindNextTick(SimTime limit);

  // Start of the first occupied slot of `level` (1 or 2) in ring order
  // from the position, or kNoEvent.
  SimTime NextSlotStart(int level) const;

  // Occupancy bitmap helpers.
  void SetBit(int level, int slot);
  void ClearBit(int level, int slot);
  int ScanLevel0(int from) const;  // first set slot >= from, or -1

  SimTime pos_ = 0;  // level-0 tick start cascades are current to
  std::size_t size_ = 0;
  Stats stats_;
  Reaper reaper_ = nullptr;
  void* reaper_ctx_ = nullptr;
  SimTime resume_at_ = 0;

  std::vector<WheelEntry> slots0_[256];
  std::vector<WheelEntry> slots_[kLevels - 1][64];  // levels 1..kLevels-1
  std::uint64_t bitmap0_[4] = {};
  std::uint64_t bitmap_[kLevels - 1] = {};

  // Level-0 tick currently draining, sorted by (time, seq). Immutable while
  // draining: schedules landing back in this tick park in the side heap.
  std::vector<WheelEntry> drain_;
  std::size_t drain_pos_ = 0;
  SimTime drained_tick_ = -1;  // pos_ >> kShift[0] of the loaded tick

  // Side heap, merged against the drain buffer on every pop. Holds entries
  // scheduled behind the wheel position (time < pos_) and same-tick
  // re-schedules into the tick currently draining. Both pop before the
  // wheel may advance, so everything in here precedes all slot content;
  // it stays small and is usually empty.
  std::priority_queue<WheelEntry, std::vector<WheelEntry>, SeqGreater> past_;

  // Far-future calendar: bucket index -> entries, min-keyed map.
  std::map<std::int64_t, std::vector<WheelEntry>> overflow_;
  std::vector<WheelEntry> scratch_;  // cascade/migration staging
};

}  // namespace cnv::sim
