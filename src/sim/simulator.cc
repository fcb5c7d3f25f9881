#include "sim/simulator.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace cnv::sim {

Simulator::EventId Simulator::ScheduleAt(SimTime t, std::function<void()> fn) {
  if (t < now_) throw std::invalid_argument("ScheduleAt: time in the past");
  if (!fn) throw std::invalid_argument("ScheduleAt: empty handler");
  return Enqueue(t, next_seq_++, std::move(fn));
}

Simulator::EventId Simulator::Enqueue(SimTime t, std::uint64_t seq,
                                      std::function<void()> fn) {
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
  wheel_.Schedule(t, seq, id);
  ++scheduled_;
  ++live_;
  peak_queue_depth_ = std::max(peak_queue_depth_, wheel_.Size());
  return id;
}

Simulator::EventId Simulator::ScheduleIn(SimDuration d,
                                         std::function<void()> fn) {
  if (d < 0) throw std::invalid_argument("ScheduleIn: negative delay");
  return ScheduleAt(now_ + d, std::move(fn));
}

void Simulator::ScheduleSeries(SimTime start, std::size_t count,
                               SimDuration spacing,
                               std::function<void(std::size_t)> fn) {
  if (start < now_) {
    throw std::invalid_argument("ScheduleSeries: start in the past");
  }
  if (spacing < 0) {
    throw std::invalid_argument("ScheduleSeries: negative spacing");
  }
  if (!fn) throw std::invalid_argument("ScheduleSeries: empty handler");
  if (count == 0) return;
  const SimTime room = std::numeric_limits<SimTime>::max() - start;
  if (spacing > 0 && count - 1 > static_cast<std::uint64_t>(room / spacing)) {
    throw std::invalid_argument("ScheduleSeries: last step overflows time");
  }
  auto s = std::make_unique<Series>();
  s->start = start;
  s->spacing = spacing;
  s->first_seq = next_seq_;
  s->count = count;
  s->fn = std::move(fn);
  next_seq_ += count;
  QueueSeriesStep(s.get());
  series_.push_back(std::move(s));
}

void Simulator::QueueSeriesStep(Series* s) {
  const std::size_t i = s->next;
  Enqueue(s->start + static_cast<SimDuration>(i) * s->spacing,
          s->first_seq + i, [this, s] { RunSeriesStep(s); });
}

void Simulator::RunSeriesStep(Series* s) {
  const std::size_t i = s->next++;
  const bool last = s->next == s->count;
  if (!last) QueueSeriesStep(s);
  s->fn(i);
  if (!last) return;
  // fn may have started other series; find this one wherever it sits.
  for (auto& owned : series_) {
    if (owned.get() != s) continue;
    owned = std::move(series_.back());
    series_.pop_back();
    break;
  }
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
  ++slots_[slot].gen;
  free_slots_.push_back(slot);
  return fn;
}

bool Simulator::Step() {
  WheelEntry e;
  while (wheel_.PopUntil(std::numeric_limits<SimTime>::max(), &e)) {
    if (!IsLive(e)) continue;  // cancelled straggler: drop the tombstone
    now_ = e.time;
    // Move out so re-entrant scheduling cannot alias the running handler.
    std::function<void()> fn = ReleaseSlot(e.payload);
    ++executed_;
    --live_;
    fn();
    return true;
  }
  return false;
}

void Simulator::RunUntil(SimTime t) {
  if (t < now_) throw std::invalid_argument("RunUntil: time in the past");
  WheelEntry e;
  while (wheel_.PopUntil(t, &e)) {
    if (!IsLive(e)) continue;
    now_ = e.time;
    std::function<void()> fn = ReleaseSlot(e.payload);
    ++executed_;
    --live_;
    fn();
  }
  now_ = t;
}

void Simulator::RunAll(SimTime limit) {
  WheelEntry e;
  while (wheel_.PopUntil(limit, &e)) {
    if (!IsLive(e)) continue;
    now_ = e.time;
    std::function<void()> fn = ReleaseSlot(e.payload);
    ++executed_;
    --live_;
    fn();
  }
  if (now_ < limit && limit != std::numeric_limits<SimTime>::max()) {
    now_ = limit;
  }
}

}  // namespace cnv::sim
