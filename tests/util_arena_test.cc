// Arena allocator suite: zero-initialization, alignment, exact byte
// accounting, and the chunk-sizing policy the struct-of-arrays population
// state depends on (one huge array never straddles chunks).

#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "util/arena.h"

namespace cnv {
namespace {

TEST(ArenaTest, ArraysAreZeroInitialized) {
  Arena a;
  auto* p = a.AllocArray<std::uint64_t>(4096);
  ASSERT_NE(p, nullptr);
  for (int i = 0; i < 4096; ++i) ASSERT_EQ(p[i], 0u) << i;
}

TEST(ArenaTest, RespectsAlignment) {
  Arena a;
  a.AllocArray<std::uint8_t>(3);  // misalign the bump pointer
  auto* d = a.AllocArray<double>(8);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
  a.AllocArray<std::uint8_t>(1);
  auto* q = a.AllocArray<std::uint64_t>(8);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % alignof(std::uint64_t), 0u);
}

TEST(ArenaTest, TotalBytesCountsPayloadExactly) {
  Arena a;
  EXPECT_EQ(a.TotalBytes(), 0u);
  a.AllocArray<std::uint32_t>(1000);
  EXPECT_EQ(a.TotalBytes(), 4000u);
  a.AllocArray<std::uint8_t>(1);
  EXPECT_EQ(a.TotalBytes(), 4001u);
}

TEST(ArenaTest, HugeArrayGetsOneChunk) {
  Arena a;
  // Population-scale request far above the chunk floor: must be served out
  // of a single dedicated chunk, not split.
  const std::size_t n = (std::size_t{8} << 20) / sizeof(std::uint64_t);
  auto* p = a.AllocArray<std::uint64_t>(n);
  ASSERT_NE(p, nullptr);
  p[0] = 1;
  p[n - 1] = 2;  // both ends writable: contiguous storage
  EXPECT_EQ(p[0] + p[n - 1], 3u);
}

TEST(ArenaTest, SmallAllocationsShareChunks) {
  Arena a;
  for (int i = 0; i < 100; ++i) a.AllocArray<std::uint64_t>(16);
  EXPECT_EQ(a.TotalBytes(), 100u * 16 * sizeof(std::uint64_t));
}

TEST(ArenaTest, ZeroByteRequestIsNull) {
  Arena a;
  EXPECT_EQ(a.AllocArray<std::uint32_t>(0), nullptr);
  EXPECT_EQ(a.TotalBytes(), 0u);
}

}  // namespace
}  // namespace cnv
