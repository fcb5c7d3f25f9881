// InternTable: lookup by cached hash across growth rehashes.
#include "mck/intern_table.h"

#include <cstdint>
#include <vector>

#include "gtest/gtest.h"

namespace cnv::mck {
namespace {

std::vector<std::uint64_t> Hashes(std::size_t n) {
  std::vector<std::uint64_t> out;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out.push_back(x);
  }
  return out;
}

TEST(InternTableTest, FindsInsertedEntries) {
  const auto hashes = Hashes(500);
  InternTable t(16);
  for (std::size_t i = 0; i < 250; ++i) {
    t.Insert(hashes[i], static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(t.size(), 250u);
  EXPECT_LE(t.occupancy(), 0.75);
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    const std::int64_t found = t.Find(hashes[i], [&](std::int64_t idx) {
      return idx == static_cast<std::int64_t>(i);
    });
    ASSERT_EQ(found, i < 250 ? static_cast<std::int64_t>(i) : -1) << i;
  }
}

}  // namespace
}  // namespace cnv::mck
