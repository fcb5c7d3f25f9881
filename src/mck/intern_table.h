// Cached-hash intern table for arena-indexed state sets.
//
// The explorer keeps discovered states in an arena (std::vector<State>) and
// needs a hash set over arena *indices*. The previous implementation used
// std::unordered_set<int64> with a hasher that recomputed HashValue(state) on
// every probe and — worse — on every rehash, and interning had to push the
// candidate state into the arena just to probe for it (popping it back off on
// a duplicate hit). This table fixes both:
//
//   * each slot stores the precomputed 64-bit state hash alongside the arena
//     index, so probes and growth rehashes never touch the states again;
//   * lookup takes (hash, eq) directly, so callers probe *before* appending
//     to the arena and only append on an actual insertion;
//   * capacity can be pre-reserved from the caller's max_states bound.
//
// Open addressing with linear probing over a power-of-two slot array at a max
// load factor of 0.75. Slot *placement* uses the low hash bits; the parallel
// explorer routes states to shards by the *top* hash bits, so per-shard
// tables keep full low-bit entropy (see mck/parallel_explorer.h).
//
// The table layout is an implementation detail: iteration order is never
// exposed, so it cannot leak nondeterminism into exploration results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cnv::mck {

class InternTable {
 public:
  // `expected` pre-sizes the table for about that many entries without
  // growth; 0 starts at the minimum capacity.
  explicit InternTable(std::size_t expected = 0) {
    Reserve(expected > 0 ? expected : 8);
  }

  // Returns the arena index of the entry matching (hash, eq), or -1.
  // `eq(idx)` must compare the probe state against the arena state at `idx`;
  // it is only called on slots whose cached hash matches exactly.
  template <typename Eq>
  std::int64_t Find(std::uint64_t hash, Eq&& eq) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = static_cast<std::size_t>(hash) & mask;;
         i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.index < 0) return -1;
      if (slot.hash == hash && eq(slot.index)) return slot.index;
    }
  }

  // Records (hash, index); the caller has already verified via Find that no
  // equal state is present.
  void Insert(std::uint64_t hash, std::int64_t index) {
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    Place(hash, index);
    ++size_;
  }

  // Removes the entry recorded as (hash, index); it must be present. Uses
  // backward-shift deletion so probe chains stay intact with no tombstones.
  void Erase(std::uint64_t hash, std::int64_t index) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(hash) & mask;
    while (slots_[i].hash != hash || slots_[i].index != index) {
      i = (i + 1) & mask;
    }
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask;
      if (slots_[j].index < 0) break;
      const std::size_t home = static_cast<std::size_t>(slots_[j].hash) & mask;
      // Slot j may fill the hole at i only if i lies on j's probe path,
      // i.e. i is cyclically within [home, j).
      const bool movable =
          (i <= j) ? (home <= i || home > j) : (home <= i && home > j);
      if (movable) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = {0, -1};
    --size_;
  }

  // Grows the slot array to hold at least `expected` entries within the load
  // factor. Existing entries are rehashed from their *cached* hashes.
  void Reserve(std::size_t expected) {
    std::size_t capacity = 8;
    while (capacity * 3 < expected * 4) capacity <<= 1;
    if (capacity > slots_.size()) Rebuild(capacity);
  }

  // Rebuilds at the smallest power-of-two capacity, no smaller than
  // `floor`, that holds size() entries — the capacity the table would have
  // if the entries erased since it had `floor` slots had never been
  // inserted. Undoes the growth a batch of inserts caused when the batch is
  // rolled back, so occupancy does not depend on the rollback.
  void ShrinkToFit(std::size_t floor) {
    std::size_t capacity = floor;
    while (capacity * 3 < size_ * 4) capacity <<= 1;
    if (capacity < slots_.size()) Rebuild(capacity);
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }
  // Load factor — the memory-pressure signal reported in ExploreStats.
  double occupancy() const {
    return slots_.empty() ? 0.0
                          : static_cast<double>(size_) /
                                static_cast<double>(slots_.size());
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::int64_t index = -1;  // -1 = empty
  };

  void Place(std::uint64_t hash, std::int64_t index) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(hash) & mask;
    while (slots_[i].index >= 0) i = (i + 1) & mask;
    slots_[i] = {hash, index};
  }

  void Grow() { Rebuild(slots_.size() * 2); }

  void Rebuild(std::size_t capacity) {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.assign(capacity, Slot{});
    for (const Slot& slot : old) {
      if (slot.index >= 0) Place(slot.hash, slot.index);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace cnv::mck
