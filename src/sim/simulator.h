// Discrete-event simulation kernel. All validation-phase experiments run on
// this: protocol stacks schedule message deliveries and guard timers as
// events; virtual time advances from event to event, so runs are exact and
// reproducible regardless of wall-clock load.
//
// The event queue is a hierarchical timer wheel (sim/wheel.h) rather than
// the seed's binary heap: O(1) schedule, O(1) amortized pop, and — key for
// protocol workloads where most guard timers are cancelled long before they
// expire — O(1) cancellation through generation-checked slot tombstones. A
// cancelled event's handler slot is released immediately; the entry left in
// the wheel is recognized as stale when its tick drains because its
// generation no longer matches, so neither Cancel() nor Step() does any
// hashing. Pop order is exactly (time, seq): byte-identical event order to
// the retired heap kernel, FIFO tie-break at equal timestamps included
// (tests/heap_ref.h keeps that kernel as a differential oracle).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "sim/wheel.h"
#include "util/time.h"

namespace cnv::sim {

class Simulator {
 public:
  // An EventId packs a handler-slot index (low 32 bits) and that slot's
  // generation (high 32 bits). Slots are recycled through a free list once
  // their event fires or is cancelled, so long campaigns run in bounded
  // memory; the generation tag keeps a stale id from cancelling an
  // unrelated event that later reuses the slot.
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` at absolute time `t` (>= now). Returns a handle usable
  // with Cancel().
  EventId ScheduleAt(SimTime t, std::function<void()> fn);

  // Schedules `fn` after `d` (>= 0) from now.
  EventId ScheduleIn(SimDuration d, std::function<void()> fn);

  // Schedules a strided series: step i runs fn(i) at start + i * spacing,
  // for i in [0, count). `start` must be >= now and `spacing` >= 0.
  //
  // Key-reservation contract: the call takes the `count` consecutive seqs
  // that `count` back-to-back ScheduleAt calls would take, so step i pops
  // under the same (time, seq) key as the i-th event of that loop — the
  // order against every other event is unchanged. Only one step is queued
  // at a time: step i+1 is queued when step i fires (before fn(i) runs),
  // with its reserved key, so a burst of any length holds one wheel entry
  // and one handler slot, and the step closure (simulator and series
  // pointers) fits std::function's small buffer. Series steps cannot be
  // cancelled; each queued step counts as one scheduled event.
  void ScheduleSeries(SimTime start, std::size_t count, SimDuration spacing,
                      std::function<void(std::size_t)> fn);

  // Never later than the time of the earliest pending event (cancelled
  // entries still in the queue count as pending). O(1) and coarse: it looks
  // no further ahead than the next level-0 wheel tick (~1.05 s). A handler
  // may rely on nothing running in (now, NextEventLowerBound()) unless it
  // schedules something there itself.
  SimTime NextEventLowerBound() const { return wheel_.NextEntryLowerBound(); }

  // Cancels a pending event; cancelling an already-fired or unknown event is
  // a no-op (guard timers routinely race their own expiry). O(1): the
  // handler slot is released on the spot and the wheel entry becomes a
  // generation-mismatched tombstone skipped when its tick drains.
  void Cancel(EventId id);

  // Executes the next event, advancing time. Returns false when idle.
  bool Step();

  // Runs events with time <= t, then sets now() to t.
  void RunUntil(SimTime t);

  // Runs until the queue drains or `limit` is reached.
  void RunAll(SimTime limit = std::numeric_limits<SimTime>::max());

  // Live (scheduled, not yet fired or cancelled) events. Counted directly,
  // so interleaved schedule/cancel/fire sequences can never skew it — the
  // seed derived this from queue size minus a tombstone set, which drifted
  // while cancelled stragglers lingered unpruned.
  std::size_t PendingEvents() const { return live_; }
  std::uint64_t ExecutedEvents() const { return executed_; }
  std::uint64_t ScheduledEvents() const { return scheduled_; }
  std::uint64_t CancelledEvents() const { return cancelled_total_; }
  // Peak number of simultaneously queued entries (cancelled-but-undrained
  // tombstones included, as they still occupy wheel slots).
  std::size_t PeakQueueDepth() const { return peak_queue_depth_; }
  // Number of handler slots ever allocated; bounded by the peak number of
  // simultaneously pending events, not by the total scheduled over time.
  std::size_t HandlerSlots() const { return slots_.size(); }

  // The underlying wheel, exposed read-only for per-tier occupancy
  // telemetry (obs::HarvestTimerWheel).
  const TimerWheel& wheel() const { return wheel_; }

  // Guard-timer bookkeeping, incremented by sim::Timer. Lives on the
  // simulator so every timer bound to this run aggregates into one place
  // the telemetry layer can read without extra wiring.
  struct TimerStats {
    std::uint64_t armed = 0;
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
  };
  TimerStats& timer_stats() { return timer_stats_; }
  const TimerStats& timer_stats() const { return timer_stats_; }

 private:
  struct Slot {
    std::function<void()> fn;
    std::uint32_t gen = 0;
  };

  static constexpr std::uint32_t SlotOf(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  static constexpr std::uint32_t GenOf(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static constexpr EventId MakeId(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  // True when the popped entry's generation still matches its slot, i.e. the
  // event was neither cancelled nor superseded.
  bool IsLive(const WheelEntry& e) const {
    const std::uint32_t slot = SlotOf(e.payload);
    return slots_[slot].gen == GenOf(e.payload) &&
           static_cast<bool>(slots_[slot].fn);
  }

  // A ScheduleSeries burst: its reserved seq block and the next step to
  // queue. Heap-allocated so queued step closures can point at it.
  struct Series {
    SimTime start = 0;
    SimDuration spacing = 0;
    std::uint64_t first_seq = 0;
    std::size_t count = 0;
    std::size_t next = 0;  // index of the step queued or about to be
    std::function<void(std::size_t)> fn;
  };

  // Queues `fn` under an already-issued seq; ScheduleAt and series steps
  // share it.
  EventId Enqueue(SimTime t, std::uint64_t seq, std::function<void()> fn);
  void QueueSeriesStep(Series* s);
  void RunSeriesStep(Series* s);

  // Returns the slot's handler and recycles the slot for reuse.
  std::function<void()> ReleaseSlot(EventId id);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_total_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_queue_depth_ = 0;
  TimerStats timer_stats_;
  TimerWheel wheel_;
  // Slot 0 is reserved so no live event ever gets id kInvalidEvent.
  std::vector<Slot> slots_{Slot{}};
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::unique_ptr<Series>> series_;  // bursts with steps left
};

}  // namespace cnv::sim
