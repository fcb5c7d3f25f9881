// The trace-event vocabulary table itself: every row earns its place in the
// corpus of tests/trace_corpus.h (or names the emitter that produces it),
// and the first-match answers the three readers rely on hold.
#include "trace/vocab.h"

#include <algorithm>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "trace_corpus.h"

namespace cnv::trace {
namespace {

std::string Describe(const EventRow& row) {
  std::string modules;
  for (const auto m : row.modules) {
    if (m.empty()) continue;
    if (!modules.empty()) modules += '|';
    modules += m;
  }
  return "{" + modules + ", \"" + std::string(row.needle) + "\"}";
}

TEST(TraceVocabTest, EveryRowMatchesTheCorpusOrNamesItsEmitter) {
  std::map<const EventRow*, int> hits;
  for (const auto& t : cnv::testing::VocabCorpus()) {
    for (const auto& r : t.records) {
      if (const EventRow* row = Classify(r.module, r.description)) ++hits[row];
    }
  }
  for (const EventRow& row : EventRows()) {
    if (hits.contains(&row)) {
      EXPECT_TRUE(row.emitter.empty())
          << Describe(row) << " is in the corpus; drop its emitter note";
    } else {
      EXPECT_FALSE(row.emitter.empty())
          << Describe(row) << " matches no corpus record and names no "
                              "emitter";
    }
  }
}

TEST(TraceVocabTest, EveryRecordGetsItsMostSpecificRow) {
  // The table's order only matters between a row and the rows whose
  // needles its own contains; that holds as long as no description holds
  // two needles of its module that are not nested.
  for (const auto& t : cnv::testing::VocabCorpus()) {
    for (const auto& r : t.records) {
      const EventRow* row = Classify(r.module, r.description);
      if (row == nullptr) continue;
      for (const EventRow& other : EventRows()) {
        if (std::find(other.modules.begin(), other.modules.end(),
                      r.module) == other.modules.end() ||
            r.description.find(other.needle) == std::string::npos) {
          continue;
        }
        EXPECT_NE(row->needle.find(other.needle), std::string_view::npos)
            << t.name << ": \"" << r.description << "\" matches "
            << Describe(*row) << " and " << Describe(other);
      }
    }
  }
}

TEST(TraceVocabTest, CoreNasScreensApplyToAllThreeMobilityModules) {
  for (const char* module : {"EMM", "MM", "GMM"}) {
    SCOPED_TRACE(module);
    const EventRow* shed = Classify(module, "Overload shed: Attach Request");
    ASSERT_NE(shed, nullptr);
    EXPECT_EQ(shed->kind, AbstractKind::kOverloadReject);
    const EventRow* replay =
        Classify(module, "Dropped replayed Attach Request (duplicate uid)");
    ASSERT_NE(replay, nullptr);
    EXPECT_EQ(replay->kind, AbstractKind::kAdversarialRejected);
    const EventRow* backoff =
        Classify(module, "T3346 armed (12 s); attach retry deferred");
    ASSERT_NE(backoff, nullptr);
    EXPECT_EQ(backoff->kind, AbstractKind::kCongestionBackoff);
  }
  EXPECT_EQ(Classify("SM", "Overload shed: Attach Request"), nullptr);
}

TEST(TraceVocabTest, OneRowServesEveryReader) {
  // A retransmitted attach is still an attach request to the models and a
  // retry to the span stitcher.
  const EventRow* retx = Classify("EMM", "Attach Request retransmitted");
  ASSERT_NE(retx, nullptr);
  EXPECT_EQ(retx->kind, AbstractKind::kAttachRequest);
  EXPECT_EQ(retx->spans, SpanBit(SpanKind::kAttach));
  EXPECT_EQ(retx->role, SpanRole::kRetry);

  // A congestion reject is a backoff order, and it still fails the attach.
  const EventRow* congested =
      Classify("EMM", "Attach Reject received (cause: congestion)");
  ASSERT_NE(congested, nullptr);
  EXPECT_EQ(congested->kind, AbstractKind::kCongestionReject);
  EXPECT_EQ(congested->spans, SpanBit(SpanKind::kAttach));
  EXPECT_EQ(congested->role, SpanRole::kFailure);

  // An abandoned GMM procedure fails whichever GMM span is open.
  const EventRow* abandoned =
      Classify("GMM", "GMM procedure abandoned; exponential backoff armed");
  ASSERT_NE(abandoned, nullptr);
  EXPECT_FALSE(abandoned->kind.has_value());
  EXPECT_EQ(abandoned->spans, SpanBit(SpanKind::kGprsAttach) |
                                  SpanBit(SpanKind::kRoutingUpdate));
  EXPECT_EQ(abandoned->role, SpanRole::kFailure);

  // The monitors' facts ride on the same rows.
  const EventRow* s1 = Classify(
      "EMM",
      "Tracking Area Update Reject received (cause: no EPS bearer context "
      "activated)");
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s1->kind, AbstractKind::kTauReject);
  EXPECT_EQ(s1->facts, kNoEpsBearer);
  const EventRow* power = Classify("UE", "device powers on");
  ASSERT_NE(power, nullptr);
  EXPECT_FALSE(power->kind.has_value());
  EXPECT_EQ(power->facts, kPowerOn);
}

}  // namespace
}  // namespace cnv::trace
