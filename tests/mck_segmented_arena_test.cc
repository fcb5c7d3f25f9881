// SegmentedArena: index, push and pop across segment edges at several first-
// segment hints (1 included), stable addresses across growth, and in-place
// construction/destruction of non-trivial entries.
#include "mck/segmented_arena.h"

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace cnv::mck {
namespace {

constexpr std::size_t kHints[] = {0, 1, 2, 3, 5, 24, 1024};

// Index of the first entry of segment k for a first segment of `base`.
std::size_t SegmentStart(std::size_t base, int k) {
  return base * ((std::size_t{1} << k) - 1);
}

TEST(SegmentedArenaTest, FirstSegmentIsTheHintRoundedDown) {
  EXPECT_EQ(SegmentedArena<int>(0).base(), 1u);
  EXPECT_EQ(SegmentedArena<int>(1).base(), 1u);
  EXPECT_EQ(SegmentedArena<int>(3).base(), 2u);
  EXPECT_EQ(SegmentedArena<int>(24).base(), 16u);
  EXPECT_EQ(SegmentedArena<int>(1024).base(), 1024u);
}

TEST(SegmentedArenaTest, PushIndexAndPopAcrossSegmentEdges) {
  for (const std::size_t hint : kHints) {
    SCOPED_TRACE("hint=" + std::to_string(hint));
    SegmentedArena<std::size_t> a(hint);
    const std::size_t base = a.base();
    const std::size_t n = SegmentStart(base, 5) + 1;  // one into segment 5
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(a.push_back(i * 7), i * 7);
      ASSERT_EQ(a.size(), i + 1);
    }
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(a[i], i * 7) << i;

    // Pop back across every edge down to the middle of segment 0, checking
    // the last entry at each step, then refill over the retained segments.
    while (a.size() > base / 2) {
      ASSERT_EQ(a[a.size() - 1], (a.size() - 1) * 7);
      a.pop_back();
    }
    for (std::size_t i = a.size(); i < n; ++i) a.push_back(i * 11);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(a[i], i < base / 2 ? i * 7 : i * 11) << i;
    }
  }
}

TEST(SegmentedArenaTest, PopLandsExactlyOnAndOnePastAnEdge) {
  for (const std::size_t hint : kHints) {
    SCOPED_TRACE("hint=" + std::to_string(hint));
    SegmentedArena<int> a(hint);
    const std::size_t edge = SegmentStart(a.base(), 2);
    for (std::size_t i = 0; i < edge + 3; ++i) a.push_back(static_cast<int>(i));
    // Keep one entry past the edge, then none: both must leave the arena
    // appendable with indices intact.
    for (const std::size_t keep : {edge + 1, edge}) {
      while (a.size() > keep) a.pop_back();
      EXPECT_EQ(a[keep - 1], static_cast<int>(keep - 1));
      a.push_back(-1);
      EXPECT_EQ(a[keep], -1);
      EXPECT_EQ(a[keep - 1], static_cast<int>(keep - 1));
      a.pop_back();
    }
  }
}

TEST(SegmentedArenaTest, GrowthNeverMovesEntries) {
  for (const std::size_t hint : kHints) {
    SCOPED_TRACE("hint=" + std::to_string(hint));
    SegmentedArena<int> a(hint);
    std::vector<const int*> addresses;
    const std::size_t n = SegmentStart(a.base(), 6);
    for (std::size_t i = 0; i < n; ++i) {
      addresses.push_back(&a.push_back(static_cast<int>(i)));
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(&a[i], addresses[i]) << i;
      ASSERT_EQ(*addresses[i], static_cast<int>(i));
    }
  }
}

TEST(SegmentedArenaTest, OwnsNonTrivialEntriesAndMoves) {
  // Strings past the small-string buffer own heap memory, so a missed
  // destroy or a double destroy shows under the sanitizers.
  const auto value = [](std::size_t i) {
    return std::string(40, 'x') + std::to_string(i);
  };
  SegmentedArena<std::string> a(3);
  for (std::size_t i = 0; i < 50; ++i) a.push_back(value(i));
  for (int i = 0; i < 20; ++i) a.pop_back();

  SegmentedArena<std::string> b(std::move(a));
  EXPECT_EQ(a.size(), 0u);
  ASSERT_EQ(b.size(), 30u);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], value(i));

  SegmentedArena<std::string> c(100);
  c.push_back("replaced");
  c = std::move(b);
  ASSERT_EQ(c.size(), 30u);
  EXPECT_EQ(c.base(), 2u);
  EXPECT_EQ(c[29], value(29));
  c.push_back(value(30));
  EXPECT_EQ(c[30], value(30));
}

}  // namespace
}  // namespace cnv::mck
