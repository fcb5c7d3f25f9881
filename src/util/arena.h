// Bump-pointer arena for population-scale struct-of-arrays state. The city
// engine holds per-UE state as parallel primitive arrays; allocating them
// from one arena keeps the whole population in a handful of large
// contiguous blocks (cache-friendly sweeps, no per-object malloc overhead)
// and makes the bytes-per-UE figure an exact measurement: TotalBytes() is
// the entire footprint.
//
// Allocation only — no free. Everything dies together when the arena does,
// which is exactly the lifetime of a simulation run's population.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

namespace cnv {

class Arena {
 public:
  static constexpr std::size_t kMinChunk = std::size_t{1} << 20;  // 1 MiB

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Zeroed storage for `bytes` at alignment `align` (a power of two).
  void* Allocate(std::size_t bytes, std::size_t align) {
    if (bytes == 0) return nullptr;
    std::size_t off = (used_ + align - 1) & ~(align - 1);
    if (chunks_.empty() || off + bytes > chunk_size_) {
      // Population arrays are huge relative to the chunk floor; size the
      // chunk to the request so one array never straddles chunks.
      NewChunk(bytes < kMinChunk ? kMinChunk : bytes);
      off = 0;
    }
    used_ = off + bytes;
    total_ += bytes;
    return chunks_.back().get() + off;
  }

  // A zero-initialized array of `n` trivially-destructible Ts.
  template <typename T>
  T* AllocArray(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is never destructed");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  // Bytes handed out (the payload figure reported as bytes/UE).
  std::size_t TotalBytes() const { return total_; }

 private:
  void NewChunk(std::size_t size) {
    chunks_.emplace_back(new std::byte[size]);
    std::memset(chunks_.back().get(), 0, size);
    chunk_size_ = size;
    used_ = 0;
  }

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::size_t chunk_size_ = 0;
  std::size_t used_ = 0;
  std::size_t total_ = 0;
};

}  // namespace cnv
