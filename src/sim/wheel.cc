#include "sim/wheel.h"

#include <algorithm>
#include <bit>

namespace cnv::sim {

namespace {

constexpr SimTime kBucketWidth = SimTime{1} << 31;

inline int Ctz(std::uint64_t x) { return std::countr_zero(x); }

struct EntryLess {
  bool operator()(const WheelEntry& a, const WheelEntry& b) const {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
};

// First set bit in [0, p), or -1. Used for level-0 slots that wrapped past
// the current 256-tick window into the next one.
int ScanBelow(const std::uint64_t* bm, int p) {
  for (int word = 0; word < 4; ++word) {
    const int base = word << 6;
    if (base >= p) return -1;
    std::uint64_t b = bm[word];
    if (base + 64 > p) b &= (std::uint64_t{1} << (p - base)) - 1;
    if (b) return base + Ctz(b);
  }
  return -1;
}

}  // namespace

void TimerWheel::SetBit(int level, int slot) {
  if (level == 0) {
    bitmap0_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  } else {
    bitmap_[level - 1] |= std::uint64_t{1} << slot;
  }
}

void TimerWheel::ClearBit(int level, int slot) {
  if (level == 0) {
    bitmap0_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  } else {
    bitmap_[level - 1] &= ~(std::uint64_t{1} << slot);
  }
}

int TimerWheel::ScanLevel0(int from) const {
  int word = from >> 6;
  std::uint64_t b = bitmap0_[word] & (~std::uint64_t{0} << (from & 63));
  for (;;) {
    if (b) return (word << 6) + Ctz(b);
    if (++word == 4) return -1;
    b = bitmap0_[word];
  }
}

void TimerWheel::Insert(const WheelEntry& e) {
  const SimTime d = e.time - pos_;
  int level = 0;
  while (d >= Horizon(level)) ++level;
  // Indexing is by absolute time, so an entry whose slot the position is
  // already inside (that slot's cascade has passed) steps down a level; the
  // shared slot bounds the remaining delay under the lower level's horizon.
  while (level > 0 && (e.time >> kShift[level]) == (pos_ >> kShift[level])) {
    --level;
  }
  if (level == 0) {
    const SimTime tick = e.time >> kShift[0];
    if (tick == drained_tick_) {
      // The tick is mid-drain: the slot list already moved to the drain
      // buffer. Parking the entry in the side heap keeps the (time, seq)
      // merge exact — the pop paths always weigh the heap top against the
      // drain head — without the O(n) memmove a sorted vector insert would
      // cost, and a coarse tick sees plenty of same-tick re-schedules.
      past_.push(e);
      ++stats_.inserts[0];
      return;
    }
    const int slot = static_cast<int>(tick & 255);
    slots0_[slot].push_back(e);
    SetBit(0, slot);
  } else {
    const int slot = static_cast<int>((e.time >> kShift[level]) &
                                      ((SimTime{1} << kBits[level]) - 1));
    slots_[level - 1][slot].push_back(e);
    SetBit(level, slot);
  }
  ++stats_.inserts[level];
  if (++stats_.occupancy[level] > stats_.peak_occupancy[level]) {
    stats_.peak_occupancy[level] = stats_.occupancy[level];
  }
}

void TimerWheel::ScheduleSlow(SimTime t, std::uint64_t seq,
                              std::uint64_t payload) {
  // size_ and resume_at_ already updated by the inline fast path.
  const WheelEntry e{t, seq, payload};
  if (t < pos_) {
    past_.push(e);
    return;
  }
  if (t - pos_ >= Horizon(kLevels - 1)) {
    auto& bucket = overflow_[t >> kBucketShift];
    bucket.push_back(e);
    ++stats_.overflow_inserts;
    if (++stats_.overflow_occupancy > stats_.overflow_peak) {
      stats_.overflow_peak = stats_.overflow_occupancy;
    }
    return;
  }
  Insert(e);
}

void TimerWheel::CascadeSlot(int level, int slot) {
  auto& src = slots_[level - 1][slot];
  if (src.empty()) return;
  scratch_.clear();
  std::swap(scratch_, src);
  ClearBit(level, slot);
  stats_.occupancy[level] -= scratch_.size();
  for (const WheelEntry& e : scratch_) {
    if (Dead(e)) {
      --size_;
      ++stats_.reaped;
      continue;
    }
    ++stats_.cascaded;
    Insert(e);
  }
  scratch_.clear();
}

void TimerWheel::MigrateHeadBucket() {
  const auto it = overflow_.begin();
  scratch_.clear();
  std::swap(scratch_, it->second);
  overflow_.erase(it);
  stats_.overflow_occupancy -= scratch_.size();
  for (const WheelEntry& e : scratch_) {
    if (Dead(e)) {
      --size_;
      ++stats_.reaped;
      continue;
    }
    ++stats_.migrated;
    Insert(e);
  }
  scratch_.clear();
}

void TimerWheel::LoadDrainSlot() {
  const SimTime tick = pos_ >> kShift[0];
  const int slot = static_cast<int>(tick & 255);
  drain_.clear();
  std::swap(drain_, slots0_[slot]);
  drain_pos_ = 0;
  drained_tick_ = tick;
  ClearBit(0, slot);
  stats_.occupancy[0] -= drain_.size();
  ++stats_.sorted_ticks;
  if (reaper_ != nullptr) {
    auto keep = drain_.begin();
    for (const WheelEntry& e : drain_) {
      if (!Dead(e)) *keep++ = e;
    }
    const auto reaped =
        static_cast<std::size_t>(drain_.end() - keep);
    drain_.erase(keep, drain_.end());
    size_ -= reaped;
    stats_.reaped += reaped;
  }
  // A tick spans many timestamps, so restoring exact pop order needs the
  // full (time, seq) key, not seq alone. Most ticks hold a single entry at
  // city scale — skip the sort call outright then.
  if (drain_.size() > 1) {
    std::sort(drain_.begin(), drain_.end(), EntryLess{});
  }
}

SimTime TimerWheel::NextSlotStart(int level) const {
  const std::uint64_t bm = bitmap_[level - 1];
  if (!bm) return kNoEvent;
  const int n = 1 << kBits[level];
  const int lp = static_cast<int>((pos_ >> kShift[level]) & (n - 1));
  int o;
  const std::uint64_t above = lp < n - 1 ? bm >> (lp + 1) : 0;
  if (above) {
    o = Ctz(above) + 1;
  } else {
    // Ring wrap: occupied slots at ring index <= lp belong to the next
    // revolution (occupied slots always start strictly ahead of pos_).
    o = Ctz(bm) + n - lp;
  }
  return ((pos_ >> kShift[level]) + o) << kShift[level];
}

SimTime TimerWheel::FindNextTick(SimTime limit) {
  for (;;) {
    // Calendar buckets whose migration boundary has passed fit entirely
    // under the wheels' horizon now; pull them in.
    while (!overflow_.empty() &&
           (overflow_.begin()->first - 1) * kBucketWidth <= pos_) {
      MigrateHeadBucket();
    }
    const SimTime tick = pos_ >> kShift[0];
    const int p = static_cast<int>(tick & 255);
    const int s = ScanLevel0(p);
    if (s >= 0) {
      const SimTime t = (tick - p + s) << kShift[0];
      if (t > limit) {
        resume_at_ = t;
        return kNoEvent;
      }
      pos_ = t;
      return t;
    }
    // Nothing left in the current level-0 window. The next work is the
    // earliest of: a wrapped level-0 slot (next window), the start of an
    // occupied higher-level slot, or the next calendar migration boundary.
    // Jumping straight there skips every empty boundary in between —
    // boundaries matter only when the slot being entered holds entries.
    SimTime cand = kNoEvent;
    const int s0 = ScanBelow(bitmap0_, p);
    if (s0 >= 0) cand = (tick - p + 256 + s0) << kShift[0];
    for (int level = 1; level < kLevels; ++level) {
      cand = std::min(cand, NextSlotStart(level));
    }
    if (!overflow_.empty()) {
      const SimTime boundary = (overflow_.begin()->first - 1) * kBucketWidth;
      if (boundary < cand) cand = boundary;
    }
    if (cand == kNoEvent || cand > limit) {
      resume_at_ = cand;
      return kNoEvent;
    }
    pos_ = cand;
    // Entering one or more new higher-level slots: cascade them top-down so
    // entries trickle toward level 0 (re-inserting an entry places it at
    // the right lower tier directly, so lower cascades may find nothing).
    for (int level = kLevels - 1; level >= 1; --level) {
      if ((pos_ & (Width(level) - 1)) == 0) {
        CascadeSlot(level,
                    static_cast<int>((pos_ >> kShift[level]) &
                                     ((SimTime{1} << kBits[level]) - 1)));
      }
    }
  }
}

bool TimerWheel::PopUntil(SimTime limit, WheelEntry* out) {
  for (;;) {
    const bool have_drain = drain_pos_ < drain_.size();
    if (!past_.empty()) {
      // The side heap holds behind-position entries and same-tick
      // re-schedules, so it can interleave with the draining tick —
      // compare (time, seq) against the drain head.
      const WheelEntry& p = past_.top();
      bool use_past = true;
      if (have_drain) use_past = EntryLess{}(p, drain_[drain_pos_]);
      if (use_past) {
        if (p.time > limit) {
          resume_at_ = p.time;
          return false;
        }
        *out = p;
        past_.pop();
        --size_;
        return true;
      }
    }
    if (have_drain) {
      const WheelEntry& d = drain_[drain_pos_];
      if (d.time > limit) {
        resume_at_ = d.time;
        return false;
      }
      *out = d;
      ++drain_pos_;
      --size_;
      return true;
    }
    // The slot at the current position may hold entries the wheel has not
    // drained yet (fresh start, or a position parked on a future tick).
    // Once a tick is draining, new same-tick entries merge into the drain
    // buffer instead, so a loaded tick's slot stays empty.
    const SimTime tick = pos_ >> kShift[0];
    if (tick != drained_tick_ && !slots0_[tick & 255].empty()) {
      if (pos_ > limit) {
        resume_at_ = pos_;
        return false;
      }
      LoadDrainSlot();
      continue;
    }
    if (FindNextTick(limit) == kNoEvent) return false;  // resume_at_ set there
    LoadDrainSlot();
  }
}

}  // namespace cnv::sim
