// The seed event kernel — a single binary heap with an unordered_set of
// cancelled ids — kept verbatim as a differential oracle. The
// queue-discipline suite (tests/sim_wheel_test.cc) replays randomized
// schedule / cancel / equal-timestamp workloads through this kernel and
// sim::Simulator side by side and asserts identical execution order, clock
// positions, accounting, and TimerStats; it also checks the bare
// TimerWheel, the city engine's shard queue, pop for pop against it.
// NextEntryTime() is the one addition, the oracle for what the wheel may
// not pop under a limit. Nothing outside the tests uses it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/time.h"

namespace cnv::sim {

class ReferenceHeapSimulator {
 public:
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  ReferenceHeapSimulator() = default;
  ReferenceHeapSimulator(const ReferenceHeapSimulator&) = delete;
  ReferenceHeapSimulator& operator=(const ReferenceHeapSimulator&) = delete;

  SimTime now() const { return now_; }

  EventId ScheduleAt(SimTime t, std::function<void()> fn) {
    if (t < now_) throw std::invalid_argument("ScheduleAt: time in the past");
    if (!fn) throw std::invalid_argument("ScheduleAt: empty handler");
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[slot].fn = std::move(fn);
    const EventId id = MakeId(slot, slots_[slot].gen);
    queue_.push({t, next_seq_++, id});
    ++scheduled_;
    peak_queue_depth_ = std::max(peak_queue_depth_, queue_.size());
    return id;
  }

  EventId ScheduleIn(SimDuration d, std::function<void()> fn) {
    if (d < 0) throw std::invalid_argument("ScheduleIn: negative delay");
    return ScheduleAt(now_ + d, std::move(fn));
  }

  void Cancel(EventId id) {
    if (id == kInvalidEvent) return;
    const std::uint32_t slot = SlotOf(id);
    if (slot >= slots_.size()) return;
    if (slots_[slot].gen != GenOf(id) || !slots_[slot].fn) return;
    if (cancelled_.insert(id).second) ++cancelled_total_;
  }

  bool Step() {
    PruneCancelled();
    if (queue_.empty()) return false;
    const Entry e = queue_.top();
    queue_.pop();
    now_ = e.time;
    std::function<void()> fn = ReleaseSlot(e.id);
    ++executed_;
    fn();
    return true;
  }

  void RunUntil(SimTime t) {
    if (t < now_) throw std::invalid_argument("RunUntil: time in the past");
    for (;;) {
      PruneCancelled();
      if (queue_.empty() || queue_.top().time > t) break;
      Step();
    }
    now_ = t;
  }

  void RunAll(SimTime limit = std::numeric_limits<SimTime>::max()) {
    for (;;) {
      PruneCancelled();
      if (queue_.empty() || queue_.top().time > limit) break;
      Step();
    }
    if (now_ < limit && limit != std::numeric_limits<SimTime>::max()) {
      now_ = limit;
    }
  }

  // Time of the earliest queued entry (a cancelled one not yet pruned
  // included), or max() when the queue is empty.
  SimTime NextEntryTime() const {
    return queue_.empty() ? std::numeric_limits<SimTime>::max()
                          : queue_.top().time;
  }

  std::size_t PendingEvents() const { return queue_.size() - cancelled_.size(); }
  std::uint64_t ExecutedEvents() const { return executed_; }
  std::uint64_t ScheduledEvents() const { return scheduled_; }
  std::uint64_t CancelledEvents() const { return cancelled_total_; }
  std::size_t PeakQueueDepth() const { return peak_queue_depth_; }
  std::size_t HandlerSlots() const { return slots_.size(); }

  struct TimerStats {
    std::uint64_t armed = 0;
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
  };
  TimerStats& timer_stats() { return timer_stats_; }
  const TimerStats& timer_stats() const { return timer_stats_; }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    EventId id;
    bool operator>(const Entry& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

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

  std::function<void()> ReleaseSlot(EventId id) {
    const std::uint32_t slot = SlotOf(id);
    std::function<void()> fn = std::move(slots_[slot].fn);
    slots_[slot].fn = nullptr;
    ++slots_[slot].gen;
    free_slots_.push_back(slot);
    return fn;
  }

  void PruneCancelled() {
    while (!queue_.empty()) {
      const Entry& e = queue_.top();
      const auto it = cancelled_.find(e.id);
      if (it == cancelled_.end()) break;
      cancelled_.erase(it);
      ReleaseSlot(e.id);
      queue_.pop();
    }
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_total_ = 0;
  std::size_t peak_queue_depth_ = 0;
  TimerStats timer_stats_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::vector<Slot> slots_{Slot{}};
  std::vector<std::uint32_t> free_slots_;
  std::unordered_set<EventId> cancelled_;
};

}  // namespace cnv::sim
