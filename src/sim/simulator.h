// Discrete-event simulation kernel. All validation-phase experiments run on
// this: protocol stacks schedule message deliveries and guard timers as
// events; virtual time advances from event to event, so runs are exact and
// reproducible regardless of wall-clock load.
//
// The event queue is a binary min-heap on (time, seq). A testbed run keeps
// tens of events in flight, so the heap is small and its top is the exact
// next event. (The hierarchical timer wheel in sim/wheel.h is the city
// engine's per-cell shard queue; nothing here uses it.) Cancellation is
// O(1) through generation-checked slot tombstones: a cancelled event's
// handler slot is released immediately, and the entry left in the heap is
// recognized as stale when it pops because its generation no longer
// matches, so neither Cancel() nor Step() does any hashing. Pop order is
// exactly (time, seq): FIFO tie-break at equal timestamps, byte-identical
// event order to the seed kernel (tests/heap_ref.h keeps it as a
// differential oracle).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

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
  // that `count` back-to-back ScheduleAt calls would take, so step i runs
  // under the same (time, seq) key as the i-th event of that loop — the
  // order against every other event is unchanged. Only one step is pending
  // at a time, and it keeps one handler slot for the whole burst. When
  // RunUntil or RunAll fires step i, step i+1 is held out of the queue
  // under its reserved key while fn(i) runs; it counts as scheduled and
  // pending, in the queue depth and in NextEventLowerBound() exactly as a
  // queued event would. Once fn(i) returns, step i+1 runs at once if its
  // time is within the run's limit and strictly before every queued entry
  // (then it is provably the next event); otherwise it is queued and pops
  // in (time, seq) order like any other event. Step() never runs a step
  // ahead. Series steps cannot be cancelled.
  void ScheduleSeries(SimTime start, std::size_t count, SimDuration spacing,
                      std::function<void(std::size_t)> fn);

  // A block of reserved event keys: key i is (start + i * spacing,
  // first_seq + i) for i in [0, count).
  struct KeyBlock {
    SimTime start = 0;
    SimDuration spacing = 0;
    std::uint64_t first_seq = 0;
    std::size_t count = 0;
  };

  // Reserves the keys ScheduleSeries(start, count, spacing, ...) would take
  // and queues `fn` alone, under the last of them. Nothing runs at the
  // other keys; the caller counts them with Passed(). The block holds one
  // handler slot and one pending entry over its whole span, as the series
  // does, so PendingEvents(), PeakQueueDepth() and HandlerSlots() match it
  // and only ExecutedEvents() and ScheduledEvents() fall, by count - 1.
  // Arguments are checked as for ScheduleSeries; count == 0 queues nothing.
  KeyBlock ScheduleBlock(SimTime start, std::size_t count,
                         SimDuration spacing, std::function<void()> fn);

  // How many keys of `b` have passed, i.e. lie at or before the frontier.
  // The frontier is the key of the event now firing (or, between runs, of
  // the last event Step() fired), or (t, every seq handed out so far) once
  // RunUntil(t) or RunAll returns. Events fire in increasing key order and
  // every key handed out later lies past the frontier, so the passed keys
  // of a block are a prefix that only grows. O(1).
  std::size_t Passed(const KeyBlock& b) const;

  // The time of the earliest pending event: the heap top (cancelled entries
  // still in the heap count as pending) or the held series step, whichever
  // is earlier. The keys of a ScheduleBlock are not events: only the last
  // one, where its handler runs, bounds this. On an empty queue it is the
  // end of the kIdleTick interval holding the latest entry popped or step
  // run ahead, tombstones included (0 before the first pop), never "no
  // event": a caller that steps by the bound still wakes about once per
  // ~1.05 s and sees changes made outside any event. A handler may rely on
  // nothing running in (now, NextEventLowerBound()) unless it schedules
  // something there itself; what Passed() counts may still grow there.
  SimTime NextEventLowerBound() const;

  // Cancels a pending event; cancelling an already-fired or unknown event is
  // a no-op (guard timers routinely race their own expiry). O(1): the
  // handler slot is released on the spot and the heap entry becomes a
  // generation-mismatched tombstone skipped when it pops.
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
  // tombstones included, as they still occupy the heap).
  std::size_t PeakQueueDepth() const { return peak_queue_depth_; }
  // Number of handler slots ever allocated; bounded by the peak number of
  // simultaneously pending events, not by the total scheduled over time.
  std::size_t HandlerSlots() const { return slots_.size(); }

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
  // Width of the interval whose end NextEventLowerBound() reports on an
  // empty queue: 2^20 us, about 1.05 s.
  static constexpr SimDuration kIdleTick = SimDuration{1} << 20;

  // A queued event: its key and the id of its slot.
  struct Entry {
    SimTime time = 0;
    std::uint64_t seq = 0;  // global FIFO tie-break for equal timestamps
    EventId id = kInvalidEvent;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  // A ScheduleSeries burst: its reserved seq block and the next step to
  // fire. Heap-allocated so the slot of its pending step can point at it.
  struct Series {
    SimTime start = 0;
    SimDuration spacing = 0;
    std::uint64_t first_seq = 0;
    std::size_t count = 0;
    std::size_t next = 0;  // index of the pending step
    int running = 0;       // fn calls in progress (a step may drive a run)
    std::function<void(std::size_t)> fn;
  };

  // A pending event's handler: `fn`, or the series whose step it is.
  struct Slot {
    std::function<void()> fn;
    Series* series = nullptr;
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
  bool IsLive(const Entry& e) const {
    const Slot& slot = slots_[SlotOf(e.id)];
    return slot.gen == GenOf(e.id) &&
           (static_cast<bool>(slot.fn) || slot.series != nullptr);
  }

  // Queued entries plus the held step.
  std::size_t QueueDepth() const {
    return queue_.size() + (held_.id != kInvalidEvent ? 1 : 0);
  }

  std::uint32_t AcquireSlot();
  // Queues the event in `slot` under an already-issued seq; ScheduleAt,
  // series starts and key blocks share it.
  EventId Enqueue(SimTime t, std::uint64_t seq, std::uint32_t slot);
  // Throws unless a series or key block may take these arguments.
  void CheckSeries(const char* caller, SimTime start, std::size_t count,
                   SimDuration spacing, bool has_handler) const;
  // Pops the head into *e when its time is <= limit.
  bool Pop(SimTime limit, Entry* e);
  // Runs the live event `e`; a series may run ahead up to `limit`.
  void Fire(const Entry& e, SimTime limit);
  void RunSeries(Series* s, EventId id, SimTime limit);
  // Queues the held step, if any, under its reserved key.
  void QueueHeld();
  // Moves the frontier to (now, every seq handed out so far): for the end
  // of a run that fired every event up to now.
  void PassUntilNow();

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
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  SimTime reached_ = -1;  // latest time popped or run ahead; -1 before any
  // The last key that has passed (see Passed()); seqs start at 1, so
  // (0, 0) means none has.
  SimTime frontier_time_ = 0;
  std::uint64_t frontier_seq_ = 0;
  // Slot 0 is reserved so no live event ever gets id kInvalidEvent.
  std::vector<Slot> slots_{Slot{}};
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::unique_ptr<Series>> series_;  // bursts with steps left
  // The step after the series step now running, held out of the heap; id
  // is kInvalidEvent when nothing is held.
  Entry held_;
};

}  // namespace cnv::sim
