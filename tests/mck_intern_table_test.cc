// InternTable: lookup by cached hash, erase with backward shift, and
// ShrinkToFit restoring the capacity a rolled-back batch of inserts grew.
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

TEST(InternTableTest, FindsInsertedAndErasedEntries) {
  const auto hashes = Hashes(500);
  InternTable t(16);
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    t.Insert(hashes[i], static_cast<std::int64_t>(i));
  }
  const auto find = [&](std::size_t i) {
    return t.Find(hashes[i], [&](std::int64_t idx) {
      return idx == static_cast<std::int64_t>(i);
    });
  };
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    ASSERT_EQ(find(i), static_cast<std::int64_t>(i));
  }
  for (std::size_t i = hashes.size(); i-- > 250;) {
    t.Erase(hashes[i], static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(t.size(), 250u);
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    ASSERT_EQ(find(i), i < 250 ? static_cast<std::int64_t>(i) : -1) << i;
  }
}

TEST(InternTableTest, ShrinkToFitUndoesGrowthOfRolledBackInserts) {
  const auto hashes = Hashes(2000);
  for (const std::size_t kept : {0u, 5u, 24u, 25u, 100u, 700u}) {
    SCOPED_TRACE("kept=" + std::to_string(kept));
    // Reference: only the kept entries were ever inserted.
    InternTable ref(24);
    for (std::size_t i = 0; i < kept; ++i) {
      ref.Insert(hashes[i], static_cast<std::int64_t>(i));
    }
    // Rolled back: a batch overshoots to 2000 entries, then the excess is
    // erased and the growth undone from the pre-batch capacity.
    InternTable t(24);
    const std::size_t floor = t.capacity();
    for (std::size_t i = 0; i < hashes.size(); ++i) {
      t.Insert(hashes[i], static_cast<std::int64_t>(i));
    }
    for (std::size_t i = hashes.size(); i-- > kept;) {
      t.Erase(hashes[i], static_cast<std::int64_t>(i));
    }
    t.ShrinkToFit(floor);
    EXPECT_EQ(t.capacity(), ref.capacity());
    EXPECT_EQ(t.size(), kept);
    for (std::size_t i = 0; i < kept; ++i) {
      ASSERT_EQ(t.Find(hashes[i],
                       [&](std::int64_t idx) {
                         return idx == static_cast<std::int64_t>(i);
                       }),
                static_cast<std::int64_t>(i));
    }
  }
}

}  // namespace
}  // namespace cnv::mck
