#include "sim/simulator.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace cnv::sim {

Simulator::EventId Simulator::ScheduleAt(SimTime t, std::function<void()> fn) {
  if (t < now_) throw std::invalid_argument("ScheduleAt: time in the past");
  if (!fn) throw std::invalid_argument("ScheduleAt: empty handler");
  const std::uint32_t slot = AcquireSlot();
  slots_[slot].fn = std::move(fn);
  return Enqueue(t, next_seq_++, slot);
}

std::uint32_t Simulator::AcquireSlot() {
  if (free_slots_.empty()) {
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

Simulator::EventId Simulator::Enqueue(SimTime t, std::uint64_t seq,
                                      std::uint32_t slot) {
  const EventId id = MakeId(slot, slots_[slot].gen);
  queue_.push(Entry{t, seq, id});
  ++scheduled_;
  ++live_;
  peak_queue_depth_ = std::max(peak_queue_depth_, QueueDepth());
  return id;
}

Simulator::EventId Simulator::ScheduleIn(SimDuration d,
                                         std::function<void()> fn) {
  if (d < 0) throw std::invalid_argument("ScheduleIn: negative delay");
  if (d > std::numeric_limits<SimTime>::max() - now_) {
    throw std::invalid_argument("ScheduleIn: delay overflows time");
  }
  return ScheduleAt(now_ + d, std::move(fn));
}

void Simulator::CheckSeries(const char* caller, SimTime start,
                            std::size_t count, SimDuration spacing,
                            bool has_handler) const {
  const auto reject = [caller](const char* why) {
    throw std::invalid_argument(std::string(caller) + ": " + why);
  };
  if (start < now_) reject("start in the past");
  if (spacing < 0) reject("negative spacing");
  if (!has_handler) reject("empty handler");
  if (count == 0) return;
  const SimTime room = std::numeric_limits<SimTime>::max() - start;
  if (spacing > 0 && count - 1 > static_cast<std::uint64_t>(room / spacing)) {
    reject("last step overflows time");
  }
}

void Simulator::ScheduleSeries(SimTime start, std::size_t count,
                               SimDuration spacing,
                               std::function<void(std::size_t)> fn) {
  CheckSeries("ScheduleSeries", start, count, spacing, static_cast<bool>(fn));
  if (count == 0) return;
  auto s = std::make_unique<Series>();
  s->start = start;
  s->spacing = spacing;
  s->first_seq = next_seq_;
  s->count = count;
  s->fn = std::move(fn);
  next_seq_ += count;
  const std::uint32_t slot = AcquireSlot();
  slots_[slot].series = s.get();
  Enqueue(start, s->first_seq, slot);
  series_.push_back(std::move(s));
}

Simulator::KeyBlock Simulator::ScheduleBlock(SimTime start, std::size_t count,
                                             SimDuration spacing,
                                             std::function<void()> fn) {
  CheckSeries("ScheduleBlock", start, count, spacing, static_cast<bool>(fn));
  const KeyBlock b{start, spacing, next_seq_, count};
  if (count == 0) return b;
  next_seq_ += count;
  const std::uint32_t slot = AcquireSlot();
  slots_[slot].fn = std::move(fn);
  Enqueue(start + static_cast<SimDuration>(count - 1) * spacing,
          b.first_seq + count - 1, slot);
  return b;
}

std::size_t Simulator::Passed(const KeyBlock& b) const {
  const SimTime t = frontier_time_;
  if (b.count == 0 || t < b.start) return 0;
  // Keys [0, before) lie before the frontier's instant and have passed;
  // keys [before, upto) lie at it and have passed up to the frontier's seq.
  std::uint64_t before = t > b.start ? b.count : 0;
  std::uint64_t upto = b.count;
  if (b.spacing > 0) {
    const auto span = static_cast<std::uint64_t>(t - b.start);
    const auto spacing = static_cast<std::uint64_t>(b.spacing);
    before = std::min<std::uint64_t>(b.count, (span + spacing - 1) / spacing);
    upto = std::min<std::uint64_t>(b.count, span / spacing + 1);
  }
  if (frontier_seq_ >= b.first_seq) {
    before = std::max(before, std::min(upto, frontier_seq_ - b.first_seq + 1));
  }
  return static_cast<std::size_t>(before);
}

void Simulator::PassUntilNow() {
  frontier_time_ = now_;
  frontier_seq_ = next_seq_ - 1;
}

SimTime Simulator::NextEventLowerBound() const {
  if (held_.id != kInvalidEvent) {
    return queue_.empty() ? held_.time
                          : std::min(held_.time, queue_.top().time);
  }
  if (!queue_.empty()) return queue_.top().time;
  if (reached_ < 0) return 0;
  // The end of reached_'s interval, saturating at the end of time.
  const SimTime start = reached_ - reached_ % kIdleTick;
  return start <= std::numeric_limits<SimTime>::max() - kIdleTick
             ? start + kIdleTick
             : std::numeric_limits<SimTime>::max();
}

bool Simulator::Pop(SimTime limit, Entry* e) {
  if (queue_.empty() || queue_.top().time > limit) return false;
  *e = queue_.top();
  queue_.pop();
  reached_ = std::max(reached_, e->time);
  return true;
}

void Simulator::Fire(const Entry& e, SimTime limit) {
  now_ = e.time;
  frontier_time_ = e.time;
  frontier_seq_ = e.seq;
  ++executed_;
  Series* s = slots_[SlotOf(e.id)].series;
  if (s != nullptr) {
    RunSeries(s, e.id, limit);
    return;
  }
  // Move out so re-entrant scheduling cannot alias the running handler.
  std::function<void()> fn = ReleaseSlot(e.id);
  --live_;
  fn();
}

void Simulator::RunSeries(Series* s, EventId id, SimTime limit) {
  for (;;) {
    const std::size_t i = s->next++;
    if (s->next == s->count) {
      ReleaseSlot(id);
      --live_;
    } else {
      // Step i+1 keeps the slot and counts as scheduled from here on, as if
      // it were queued; only its heap entry is deferred.
      held_ = Entry{s->start + static_cast<SimDuration>(s->next) * s->spacing,
                    s->first_seq + s->next, id};
      ++scheduled_;
      peak_queue_depth_ = std::max(peak_queue_depth_, QueueDepth());
    }
    ++s->running;
    s->fn(i);
    --s->running;
    if (s->next == s->count) {
      // Every step has fired, here or in a run that fn drove itself. The
      // outermost fn call still running frees the series.
      if (s->running > 0) return;
      // fn may have started other series; find this one wherever it sits.
      for (auto& owned : series_) {
        if (owned.get() != s) continue;
        owned = std::move(series_.back());
        series_.pop_back();
        break;
      }
      return;
    }
    if (held_.id == kInvalidEvent) return;  // a nested run queued it
    // A held step strictly before the heap top, dead entries included, is
    // the next event: run it without the queue round trip. Ties go through
    // the heap, which breaks them by seq.
    if (held_.time > limit ||
        (!queue_.empty() && queue_.top().time <= held_.time)) {
      QueueHeld();
      return;
    }
    now_ = held_.time;
    reached_ = std::max(reached_, now_);
    frontier_time_ = held_.time;
    frontier_seq_ = held_.seq;
    held_.id = kInvalidEvent;
    ++executed_;
  }
}

void Simulator::QueueHeld() {
  if (held_.id == kInvalidEvent) return;
  queue_.push(held_);
  held_.id = kInvalidEvent;
}

void Simulator::Cancel(EventId id) {
  if (id == kInvalidEvent) return;
  const std::uint32_t slot = SlotOf(id);
  if (slot >= slots_.size()) return;
  // A stale id (the slot moved on to a newer generation, or the event
  // already fired) is a no-op.
  if (slots_[slot].gen != GenOf(id) || !slots_[slot].fn) return;
  ReleaseSlot(id);
  ++cancelled_total_;
  --live_;
}

std::function<void()> Simulator::ReleaseSlot(EventId id) {
  const std::uint32_t slot = SlotOf(id);
  std::function<void()> fn = std::move(slots_[slot].fn);
  slots_[slot].fn = nullptr;
  slots_[slot].series = nullptr;
  ++slots_[slot].gen;
  free_slots_.push_back(slot);
  return fn;
}

// The run loops queue a held step first: a handler that drives the
// simulator itself must find its series' next step in the heap, and a
// step left held by a handler that threw is queued for the next run.
bool Simulator::Step() {
  QueueHeld();
  Entry e;
  while (Pop(std::numeric_limits<SimTime>::max(), &e)) {
    if (!IsLive(e)) continue;  // cancelled straggler: drop the tombstone
    // A limit before every event time keeps a series from running ahead.
    Fire(e, std::numeric_limits<SimTime>::min());
    return true;
  }
  return false;
}

void Simulator::RunUntil(SimTime t) {
  if (t < now_) throw std::invalid_argument("RunUntil: time in the past");
  QueueHeld();
  Entry e;
  while (Pop(t, &e)) {
    if (IsLive(e)) Fire(e, t);
  }
  now_ = t;
  PassUntilNow();
}

void Simulator::RunAll(SimTime limit) {
  QueueHeld();
  Entry e;
  while (Pop(limit, &e)) {
    if (IsLive(e)) Fire(e, limit);
  }
  if (now_ < limit && limit != std::numeric_limits<SimTime>::max()) {
    now_ = limit;
  }
  // Every event up to now has fired, unless the limit lay before now.
  if (limit >= now_) PassUntilNow();
}

}  // namespace cnv::sim
