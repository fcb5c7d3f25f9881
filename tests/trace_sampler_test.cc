// Sampling-sink suite: the O(1) 1-in-N trace sampler that keeps city-scale
// runs traceable. Properties pinned here: determinism of the admitted
// subset, whole-history coherence (an admitted key is always admitted),
// unbiased rate, exact emitted/dropped accounting, and the EmitAlways
// bypass for storm/overload records.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "trace/record.h"
#include "trace/sampler.h"

namespace cnv::trace {
namespace {

// The city engine's record path: suppressed keys are counted without
// building a record, admitted ones are emitted.
void Record(SamplingSink& sink, std::uint64_t key, const TraceRecord& r) {
  if (sink.Admits(key)) {
    sink.EmitAlways(r);
  } else {
    sink.CountSuppressed(1);
  }
}

TEST(SamplingSinkTest, EveryOneAdmitsEverything) {
  int emitted = 0;
  SamplingSink sink(1, 42, [&](const TraceRecord&) { ++emitted; });
  TraceRecord r;
  for (std::uint64_t k = 0; k < 100; ++k) Record(sink, k, r);
  EXPECT_EQ(emitted, 100);
  EXPECT_EQ(sink.emitted(), 100u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(SamplingSinkTest, AdmitDecisionIsDeterministicAndStable) {
  SamplingSink a(64, 7, [](const TraceRecord&) {});
  SamplingSink b(64, 7, [](const TraceRecord&) {});
  for (std::uint64_t k = 0; k < 10'000; ++k) {
    ASSERT_EQ(a.Admits(k), b.Admits(k)) << k;
    // Whole-history coherence: re-asking never flips the answer.
    ASSERT_EQ(a.Admits(k), a.Admits(k)) << k;
  }
}

TEST(SamplingSinkTest, SeedDecorrelatesTheSubset) {
  SamplingSink a(64, 1, [](const TraceRecord&) {});
  SamplingSink b(64, 2, [](const TraceRecord&) {});
  int both = 0, a_only = 0;
  for (std::uint64_t k = 0; k < 100'000; ++k) {
    if (a.Admits(k) && b.Admits(k)) ++both;
    if (a.Admits(k) && !b.Admits(k)) ++a_only;
  }
  // Independent 1/64 subsets overlap on ~1/4096 of keys; identical subsets
  // would put everything in `both`.
  EXPECT_GT(a_only, both);
}

TEST(SamplingSinkTest, AdmitRateIsCloseToOneInN) {
  SamplingSink sink(64, 99, [](const TraceRecord&) {});
  int admitted = 0;
  const int keys = 200'000;
  for (std::uint64_t k = 0; k < keys; ++k) {
    if (sink.Admits(k)) ++admitted;
  }
  const double rate = static_cast<double>(admitted) / keys;
  EXPECT_GT(rate, 0.5 / 64);  // not starving
  EXPECT_LT(rate, 2.0 / 64);  // not flooding
}

TEST(SamplingSinkTest, OfferAndSuppressedAccountingBalances) {
  std::vector<TraceRecord> out;
  SamplingSink sink(8, 3, [&](const TraceRecord& r) { out.push_back(r); });
  TraceRecord r;
  const int keys = 1000;
  for (std::uint64_t k = 0; k < keys; ++k) Record(sink, k, r);
  EXPECT_EQ(sink.emitted() + sink.dropped(), static_cast<std::uint64_t>(keys));
  EXPECT_EQ(sink.emitted(), out.size());

  // Hot paths skip record construction and count suppression afterwards.
  sink.CountSuppressed(500);
  EXPECT_EQ(sink.emitted() + sink.dropped(),
            static_cast<std::uint64_t>(keys) + 500);
}

TEST(SamplingSinkTest, EmitAlwaysBypassesSampling) {
  int emitted = 0;
  SamplingSink sink(1'000'000, 11, [&](const TraceRecord&) { ++emitted; });
  TraceRecord storm;
  storm.module = "STORM";
  for (int i = 0; i < 32; ++i) sink.EmitAlways(storm);
  EXPECT_EQ(emitted, 32);
  EXPECT_EQ(sink.emitted(), 32u);
}

TEST(SamplingSinkTest, ZeroEveryIsClampedToRecordEverything) {
  SamplingSink sink(0, 5, [](const TraceRecord&) {});
  EXPECT_EQ(sink.every(), 1u);
  EXPECT_TRUE(sink.Admits(1234567));
}

}  // namespace
}  // namespace cnv::trace
