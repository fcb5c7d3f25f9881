#include "core/report.h"

#include <gtest/gtest.h>

namespace cnv::core {
namespace {

TEST(ReportTest, StandardsPipelineConfirmsAllSix) {
  const auto report = RunPipeline();
  EXPECT_FALSE(report.Clean());
  ASSERT_EQ(report.confirmed.size(), 6u);
  EXPECT_EQ(report.confirmed.front(), FindingId::kS1);
  EXPECT_EQ(report.confirmed.back(), FindingId::kS6);
}

TEST(ReportTest, RemediedPipelineIsClean) {
  PipelineOptions opt;
  opt.with_solutions = true;
  const auto report = RunPipeline(opt);
  EXPECT_TRUE(report.Clean());
  EXPECT_TRUE(report.screening.findings_found.empty());
}

TEST(ReportTest, MarkdownContainsAllSections) {
  const auto report = RunPipeline();
  const auto md = RenderMarkdown(report);
  EXPECT_NE(md.find("# CNetVerifier diagnosis report"), std::string::npos);
  EXPECT_NE(md.find("## Finding summary"), std::string::npos);
  EXPECT_NE(md.find("## Validation evidence"), std::string::npos);
  EXPECT_NE(md.find("## Screening statistics"), std::string::npos);
  EXPECT_NE(md.find("## Counterexamples"), std::string::npos);
  EXPECT_NE(md.find("## Verdict"), std::string::npos);
  for (const char* code : {"S1", "S2", "S3", "S4", "S5", "S6"}) {
    EXPECT_NE(md.find(std::string("| ") + code + " |"), std::string::npos);
  }
  EXPECT_NE(md.find("counterexample"), std::string::npos);
  EXPECT_NE(md.find("Confirmed findings: S1 S2 S3 S4 S5 S6"),
            std::string::npos);
}

TEST(ReportTest, MarkdownReflectsCarrierAsymmetryForS3) {
  const auto report = RunPipeline();
  const auto md = RenderMarkdown(report);
  // S3 row: screening counterexample + observed on OP-II, not on OP-I.
  const auto s3_row_start = md.find("| S3 |");
  ASSERT_NE(s3_row_start, std::string::npos);
  const auto s3_row =
      md.substr(s3_row_start, md.find('\n', s3_row_start) - s3_row_start);
  EXPECT_NE(s3_row.find("counterexample"), std::string::npos);
  EXPECT_NE(s3_row.find("| - | observed |"), std::string::npos);
}

TEST(ReportTest, CleanVerdictText) {
  PipelineOptions opt;
  opt.with_solutions = true;
  const auto md = RenderMarkdown(RunPipeline(opt));
  EXPECT_NE(md.find("No problematic protocol interactions confirmed"),
            std::string::npos);
  EXPECT_NE(md.find("remedies enabled"), std::string::npos);
}

}  // namespace
}  // namespace cnv::core
