// O(1) sampling sink for population-scale tracing. A city run generates
// hundreds of millions of trace-worthy protocol events; recording them all
// is neither affordable nor useful. The sampler admits a deterministic
// 1-in-N subset keyed by a stable id (the UE), so a sampled UE contributes
// its *entire* protocol history — procedures stay reconstructible — while
// per-record cost for everyone else is a hash and a counter bump.
//
// The admit decision is a multiplicative hash of (seed, key): constant
// time, no per-key state, identical across runs and worker counts, and
// unbiased with respect to UE id patterns (sequential ids don't alias into
// the same decision stripe the way `id % N` would).
//
// Aggregate records (storm onset, cell overload) bypass sampling via
// EmitAlways — rarity is their relevance, so they must never be dropped.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "trace/record.h"

namespace cnv::trace {

class SamplingSink {
 public:
  using Emit = std::function<void(const TraceRecord&)>;

  // Admits roughly one key in `every` (1 = record everything). `seed`
  // decorrelates the sampled subset from other hash uses of the same ids.
  SamplingSink(std::uint32_t every, std::uint64_t seed, Emit out)
      : every_(every == 0 ? 1 : every), seed_(seed), out_(std::move(out)) {}

  // Whether `key`'s records are admitted. Pure; callers on hot paths check
  // once per procedure and skip record construction entirely when false.
  bool Admits(std::uint64_t key) const {
    if (every_ == 1) return true;
    std::uint64_t h = key + seed_ + 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    h ^= h >> 31;
    return h % every_ == 0;
  }

  // Counts `n` records that were suppressed before construction (the caller
  // checked Admits() first). Keeps sampled-vs-dropped accounting honest
  // without paying for record objects nobody will see.
  void CountSuppressed(std::uint64_t n) { dropped_ += n; }

  // Unconditional pass-through for aggregate/alarm records.
  void EmitAlways(const TraceRecord& r) {
    ++emitted_;
    out_(r);
  }

  std::uint32_t every() const { return every_; }
  std::uint64_t emitted() const { return emitted_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::uint32_t every_;
  std::uint64_t seed_;
  Emit out_;
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace cnv::trace
