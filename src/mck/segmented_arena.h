// Segmented node arena: the explorer's storage for states and their
// back-pointer metadata.
//
// An append-only sequence whose growth never copies. Segment k holds
// `base << k` entries, where `base` is the caller's reserve hint rounded
// down to a power of two, so the first segment comes from the hint and
// each later one doubles the capacity — the same amortized footprint as
// std::vector doubling, without the copy of every live entry (and the
// freshly touched pages) each doubling costs. Entries never move, so a
// reference taken before a push stays valid after it.
//
// Index i maps to (segment, offset) with one std::bit_width: j = i + base
// lies in [base << k, base << (k + 1)) for segment k. Segments are
// allocated lazily on the first push that needs them and entries are
// constructed in place, so an unused tail reservation costs no resident
// memory. pop_back works across segment edges (the destructor empties the
// arena through it); emptied segments stay allocated for reuse.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace cnv::mck {

template <typename T>
class SegmentedArena {
 public:
  // `hint` sizes the first segment (rounded down to a power of two; 0 is
  // treated as 1).
  explicit SegmentedArena(std::size_t hint = 1)
      : shift_(std::bit_width(std::max<std::size_t>(hint, 1)) - 1) {}

  ~SegmentedArena() { Release(); }

  SegmentedArena(const SegmentedArena&) = delete;
  SegmentedArena& operator=(const SegmentedArena&) = delete;

  SegmentedArena(SegmentedArena&& other) noexcept { Steal(other); }
  SegmentedArena& operator=(SegmentedArena&& other) noexcept {
    if (this != &other) {
      Release();
      Steal(other);
    }
    return *this;
  }

  std::size_t size() const { return size_; }
  // Entries in the first segment.
  std::size_t base() const { return std::size_t{1} << shift_; }

  T& operator[](std::size_t i) {
    const Slot s = Locate(i);
    return segments_[s.segment][s.offset];
  }
  const T& operator[](std::size_t i) const {
    const Slot s = Locate(i);
    return segments_[s.segment][s.offset];
  }

  // Appends `value` and returns a reference to the stored entry, which
  // stays valid until it is popped or the arena is destroyed.
  T& push_back(T value) {
    if (tail_ == tail_end_) OpenSegmentAt(size_);
    T* stored = std::construct_at(tail_, std::move(value));
    ++tail_;
    ++size_;
    return *stored;
  }

  void pop_back() {
    --size_;
    const Slot s = Locate(size_);
    T* const segment = segments_[s.segment];
    tail_ = segment + s.offset;
    tail_end_ = segment + (base() << s.segment);
    std::destroy_at(tail_);
  }

 private:
  struct Slot {
    std::size_t segment = 0;
    std::size_t offset = 0;
  };

  Slot Locate(std::size_t i) const {
    const std::size_t j = i + base();
    const int top = std::bit_width(j) - 1;
    return {static_cast<std::size_t>(top - shift_),
            j - (std::size_t{1} << top)};
  }

  void OpenSegmentAt(std::size_t i) {
    const Slot s = Locate(i);
    const std::size_t length = base() << s.segment;
    if (s.segment == segments_.size()) {
      segments_.reserve(segments_.size() + 1);  // so push_back cannot throw
      segments_.push_back(std::allocator<T>().allocate(length));
    }
    tail_ = segments_[s.segment] + s.offset;
    tail_end_ = segments_[s.segment] + length;
  }

  void Release() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      while (size_ > 0) pop_back();
    }
    for (std::size_t k = 0; k < segments_.size(); ++k) {
      std::allocator<T>().deallocate(segments_[k], base() << k);
    }
    segments_.clear();
    size_ = 0;
    tail_ = tail_end_ = nullptr;
  }

  void Steal(SegmentedArena& other) {
    shift_ = other.shift_;
    size_ = std::exchange(other.size_, 0);
    tail_ = std::exchange(other.tail_, nullptr);
    tail_end_ = std::exchange(other.tail_end_, nullptr);
    segments_ = std::exchange(other.segments_, {});
  }

  int shift_ = 0;
  std::size_t size_ = 0;
  // Next free slot and the end of its segment; equal when the next push
  // must open a segment.
  T* tail_ = nullptr;
  T* tail_end_ = nullptr;
  std::vector<T*> segments_;  // segment k holds base() << k entries
};

}  // namespace cnv::mck
