#include "core/user_study.h"

#include <gtest/gtest.h>

#include "digest.h"

namespace cnv::core {
namespace {

// A reduced population keeps the test fast while still exercising every
// mechanism; the full-scale study is the table5 bench.
UserStudyConfig SmallStudy() {
  UserStudyConfig cfg;
  cfg.users = 8;
  cfg.users_with_4g = 5;
  cfg.days = 4;
  cfg.seed = 7;
  return cfg;
}

TEST(UserStudyTest, ProducesActivityOfTheRightShape) {
  UserStudy study(SmallStudy());
  const auto r = study.Run();
  EXPECT_GT(r.csfb_calls, 5);
  EXPECT_GT(r.cs_calls_3g, 2);
  EXPECT_GT(r.inter_system_switches, 2 * r.csfb_calls - 5);
  EXPECT_GE(r.attaches, 8);  // at least one power-on per user
}

TEST(UserStudyTest, S3DominatesTheOccurrenceRates) {
  // Table 5's ordering: S5 (77%) and S3 (62%) are common; S1/S4/S6 are rare.
  UserStudyConfig cfg;
  cfg.users = 12;
  cfg.users_with_4g = 7;
  cfg.days = 6;
  cfg.seed = 3;
  UserStudy study(cfg);
  const auto r = study.Run();
  const auto& s3 = r.Stats(FindingId::kS3);
  const auto& s5 = r.Stats(FindingId::kS5);
  ASSERT_GT(s3.opportunities, 0);
  ASSERT_GT(s5.opportunities, 0);
  EXPECT_GT(s3.Rate(), 0.25);  // OP-II's share of CSFB-with-data calls
  EXPECT_GT(s5.Rate(), 0.5);
  // The rare findings stay rare.
  EXPECT_LT(r.Stats(FindingId::kS1).Rate(), 0.25);
  EXPECT_LT(r.Stats(FindingId::kS6).Rate(), 0.25);
  EXPECT_EQ(r.Stats(FindingId::kS2).occurrences, 0);  // good coverage: 0/N
}

TEST(UserStudyTest, StuckDurationsSplitByCarrier) {
  UserStudy study(SmallStudy());
  const auto r = study.Run();
  // OP-I returns within seconds; OP-II's tail is much longer (Table 6).
  if (!r.stuck_seconds_op1.Empty()) {
    EXPECT_LT(r.stuck_seconds_op1.Median(), 10.0);
  }
  if (!r.stuck_seconds_op2.Empty()) {
    EXPECT_GT(r.stuck_seconds_op2.Max(), 10.0);
  }
  ASSERT_FALSE(r.stuck_seconds_op1.Empty() && r.stuck_seconds_op2.Empty());
}

TEST(UserStudyTest, DeterministicForSameSeed) {
  UserStudy a(SmallStudy());
  UserStudy b(SmallStudy());
  const auto ra = a.Run();
  const auto rb = b.Run();
  EXPECT_EQ(ra.csfb_calls, rb.csfb_calls);
  EXPECT_EQ(ra.attaches, rb.attaches);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(ra.per_finding[i].occurrences, rb.per_finding[i].occurrences);
    EXPECT_EQ(ra.per_finding[i].opportunities,
              rb.per_finding[i].opportunities);
  }
}

TEST(UserStudyTest, TablesRenderAllRows) {
  UserStudy study(SmallStudy());
  const auto r = study.Run();
  const auto t5 = UserStudy::FormatTable5(r);
  for (const char* code : {"S1", "S2", "S3", "S4", "S5", "S6"}) {
    EXPECT_NE(t5.find(code), std::string::npos);
  }
  const auto t6 = UserStudy::FormatTable6(r);
  EXPECT_NE(t6.find("OP-I"), std::string::npos);
  EXPECT_NE(t6.find("OP-II"), std::string::npos);
}

// The full-scale study behind Table 5 and Table 6 (the default config),
// pinned by the FNV-1a digest of both rendered tables.
TEST(UserStudyTest, TablesArePinned) {
  const auto r = UserStudy().Run();
  const std::string tables =
      UserStudy::FormatTable5(r) + UserStudy::FormatTable6(r);
  EXPECT_EQ(testutil::Fnv1a64(tables), 13871396934187100772ull) << tables;
}

}  // namespace
}  // namespace cnv::core
