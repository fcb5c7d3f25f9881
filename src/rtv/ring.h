// Bounded lock-free single-producer/single-consumer ring buffer: the
// hand-off between the runtime-verification gateway's ingest thread (which
// parses and abstracts trace bytes into observations) and its monitor
// thread (which steps the property automata).
//
// The contract is the classic SPSC one (cf. the ZMQ push/pull pattern the
// ngic-rtc data plane uses between its interface and worker threads): one
// thread is the producer, one the consumer, and the cursors are published
// with release stores / consumed with acquire loads so every slot written
// by the producer is fully visible to the consumer before it can be
// popped. No locks, no allocation after construction, TSan-clean.
//
// The producer may stage several slots and publish them with one store
// (TryStage ... Publish), so a batch costs one cache-line transfer instead
// of one per item. Each side keeps a private copy of the other side's
// cursor and re-reads the shared one only when the copy says full (or
// empty), so in steady state neither side touches the other's line.
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace cnv::rtv {

// Rounds up to the next power of two (minimum 2) so the index masks stay
// branch-free.
constexpr std::size_t RingCapacityFor(std::size_t requested) {
  std::size_t cap = 2;
  while (cap < requested) cap <<= 1;
  return cap;
}

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity)
      : slots_(RingCapacityFor(capacity)), mask_(slots_.size() - 1) {}
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return slots_.size(); }

  // Producer side. True when one more item fits, counting staged items.
  bool HasRoom() {
    if (staged_ - cached_head_ <= mask_) return true;
    cached_head_ = head_.load(std::memory_order_acquire);
    return staged_ - cached_head_ <= mask_;
  }

  // Producer side. Writes the next slot without making it visible to the
  // consumer; Publish() does that. Returns false when the ring is full
  // (the caller decides whether to spin — backpressure — or count-and-
  // drop); the value is left untouched on failure, so a blocked stage can
  // simply retry. A producer that spins on a full ring must Publish()
  // first, or the consumer may never see the items that would free it.
  template <typename U>
  bool TryStage(U&& v) {
    if (!HasRoom()) return false;
    slots_[staged_ & mask_] = std::forward<U>(v);
    ++staged_;
    return true;
  }

  // Producer side. Items staged since the last Publish().
  std::size_t Unpublished() const { return staged_ - published_; }

  // Producer side. Makes every staged item visible (one release store).
  void Publish() {
    if (published_ == staged_) return;
    published_ = staged_;
    tail_.store(published_, std::memory_order_release);
  }

  // Producer side. TryStage + Publish.
  template <typename U>
  bool TryPush(U&& v) {
    if (!TryStage(std::forward<U>(v))) return false;
    Publish();
    return true;
  }

  // Consumer side. Returns false when no published item is waiting.
  bool TryPop(T* out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;  // empty
    }
    *out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Racy size estimate of the published items for gauges; exact only when
  // both threads are quiet.
  std::size_t SizeApprox() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

 private:
  std::vector<T> slots_;
  const std::size_t mask_;
  // Consumer line: its cursor and its copy of the producer's.
  alignas(64) std::atomic<std::size_t> head_{0};
  std::size_t cached_tail_ = 0;
  // The published producer cursor, alone on its line: the consumer reads
  // it only when its copy runs out.
  alignas(64) std::atomic<std::size_t> tail_{0};
  // Producer line: what it has staged and published, and its copy of the
  // consumer's cursor.
  alignas(64) std::size_t staged_ = 0;
  std::size_t published_ = 0;
  std::size_t cached_head_ = 0;
};

}  // namespace cnv::rtv
