#include "core/screening.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "conf/diff.h"
#include "core/findings.h"

namespace cnv::core {
namespace {

TEST(FindingsTest, CatalogMatchesTable1) {
  const auto& all = AllFindings();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all[0].code, "S1");
  EXPECT_EQ(all[5].code, "S6");
  // Types per Table 1: S1-S4 design, S5-S6 operation.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(all[static_cast<std::size_t>(i)].type, FindingType::kDesign);
  }
  EXPECT_EQ(all[4].type, FindingType::kOperation);
  EXPECT_EQ(all[5].type, FindingType::kOperation);
  // Categories: S1-S3 necessary-but-problematic, S4-S6 independent-coupled.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(all[static_cast<std::size_t>(i)].category,
              FindingCategory::kNecessaryButProblematic);
  }
  for (int i = 3; i < 6; ++i) {
    EXPECT_EQ(all[static_cast<std::size_t>(i)].category,
              FindingCategory::kIndependentButCoupled);
  }
  // Screening discovers S1-S4; S5-S6 surface in validation (§4).
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(all[static_cast<std::size_t>(i)].found_by_screening);
  }
  EXPECT_FALSE(all[4].found_by_screening);
  EXPECT_FALSE(all[5].found_by_screening);
}

TEST(FindingsTest, DimensionsMatchTable1) {
  EXPECT_EQ(GetFinding(FindingId::kS1).dimension, Dimension::kCrossSystem);
  EXPECT_EQ(GetFinding(FindingId::kS2).dimension, Dimension::kCrossLayer);
  EXPECT_EQ(GetFinding(FindingId::kS3).dimension,
            Dimension::kCrossDomainAndSystem);
  EXPECT_EQ(GetFinding(FindingId::kS4).dimension, Dimension::kCrossLayer);
  EXPECT_EQ(GetFinding(FindingId::kS5).dimension, Dimension::kCrossDomain);
  EXPECT_EQ(GetFinding(FindingId::kS6).dimension, Dimension::kCrossSystem);
}

TEST(ScreeningTest, DiscoversAllFourDesignFindings) {
  ScreeningRunner runner;
  const auto report = runner.RunAll();
  EXPECT_TRUE(report.Found(FindingId::kS1));
  EXPECT_TRUE(report.Found(FindingId::kS2));
  EXPECT_TRUE(report.Found(FindingId::kS3));
  EXPECT_TRUE(report.Found(FindingId::kS4));
  // S5/S6 are operational slips; the screening phase cannot see them.
  EXPECT_FALSE(report.Found(FindingId::kS5));
  EXPECT_FALSE(report.Found(FindingId::kS6));
}

TEST(ScreeningTest, EveryViolationComesWithACounterexample) {
  ScreeningRunner runner;
  const auto report = runner.RunAll();
  for (const auto& cell : report.cells) {
    EXPECT_EQ(cell.violated_properties.size(), cell.counterexamples.size());
    for (const auto& cx : cell.counterexamples) {
      EXPECT_NE(cx.find("counterexample for"), std::string::npos);
    }
  }
}

TEST(ScreeningTest, HandoverAndRedirectCellsAreCleanForS3) {
  ScreeningRunner runner;
  const auto report = runner.RunAll();
  for (const auto& cell : report.cells) {
    if (cell.cell.find("inter-system handover") != std::string::npos ||
        cell.cell.find("release with redirect") != std::string::npos) {
      EXPECT_TRUE(cell.findings.empty()) << cell.cell;
    }
    if (cell.cell.find("cell reselection") != std::string::npos) {
      EXPECT_FALSE(cell.findings.empty()) << cell.cell;
    }
  }
}

TEST(ScreeningTest, SolutionsEliminateEveryViolation) {
  ScreeningOptions opt;
  opt.with_solutions = true;
  ScreeningRunner runner(opt);
  const auto report = runner.RunAll();
  EXPECT_TRUE(report.findings_found.empty());
  for (const auto& cell : report.cells) {
    EXPECT_TRUE(cell.violated_properties.empty()) << cell.cell;
    EXPECT_FALSE(cell.stats.truncated) << cell.cell;
  }
}

TEST(ScreeningTest, ExplorationIsExhaustiveNotTruncated) {
  ScreeningRunner runner;
  const auto report = runner.RunAll();
  for (const auto& cell : report.cells) {
    EXPECT_FALSE(cell.stats.truncated) << cell.cell;
  }
  // Exploration short-circuits once every property has a counterexample, so
  // totals are modest with defects present; the with-solutions run (no
  // violations) covers the full spaces.
  EXPECT_GT(report.total_states, 100u);
  ScreeningOptions fixed;
  fixed.with_solutions = true;
  const auto clean = ScreeningRunner(fixed).RunAll();
  EXPECT_GT(clean.total_states, report.total_states);
}

TEST(ScreeningTest, FormatListsCellsAndFindings) {
  ScreeningRunner runner;
  const auto report = runner.RunAll();
  const auto text = ScreeningRunner::Format(report);
  EXPECT_NE(text.find("S1 model"), std::string::npos);
  EXPECT_NE(text.find("S4 model"), std::string::npos);
  EXPECT_NE(text.find("VIOLATED"), std::string::npos);
  EXPECT_NE(text.find("S3"), std::string::npos);
}

TEST(ScreeningTest, DeterministicAcrossRuns) {
  ScreeningRunner runner;
  const auto a = runner.RunAll();
  const auto b = runner.RunAll();
  EXPECT_EQ(a.total_states, b.total_states);
  EXPECT_EQ(a.findings_found, b.findings_found);
}

TEST(ScreeningTest, RejectsWalkCountsAboveTheBound) {
  ScreeningOptions opt;
  opt.random_walks = conf::kMaxWalks;
  EXPECT_EQ(CheckOptions(opt), "");
  for (const std::uint64_t walks :
       {conf::kMaxWalks + 1, std::numeric_limits<std::uint64_t>::max()}) {
    opt.random_walks = walks;
    EXPECT_FALSE(CheckOptions(opt).empty()) << walks;
    EXPECT_THROW(ScreeningRunner{opt}, std::invalid_argument) << walks;
  }
}

}  // namespace
}  // namespace cnv::core
