// Differential driver: the seeds × carriers sweep must agree between model
// and stack (zero unexplained divergences) and render byte-identically at
// any --jobs count.
#include "conf/diff.h"

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "gtest/gtest.h"

namespace cnv::conf {
namespace {

DiffOptions SmallOptions() {
  DiffOptions opt;
  opt.seeds = 3;
  opt.walks = 8;
  opt.jobs = 1;
  return opt;
}

TEST(DiffDriverTest, SmallSweepHasNoUnexplainedDivergences) {
  const DiffReport report = DifferentialDriver(SmallOptions()).Run();
  EXPECT_TRUE(report.complete);
  // 4 scenarios x 2 carriers x 3 seeds.
  EXPECT_EQ(report.cells.size(), 24u);
  EXPECT_EQ(report.unexplained_divergences, 0u);
  EXPECT_EQ(report.agreements + report.explained_divergences +
                report.unexplained_divergences,
            report.cells.size());
  for (const auto& cell : report.cells) {
    EXPECT_TRUE(cell.explained) << ToString(cell.scenario) << " x "
                                << cell.carrier << " seed " << cell.seed
                                << ": " << cell.note;
  }
}

TEST(DiffDriverTest, ReportIsByteIdenticalAcrossJobCounts) {
  DiffOptions serial = SmallOptions();
  DiffOptions parallel = SmallOptions();
  parallel.jobs = 4;
  const DiffReport a = DifferentialDriver(serial).Run();
  const DiffReport b = DifferentialDriver(parallel).Run();
  EXPECT_EQ(DifferentialDriver::FormatText(a),
            DifferentialDriver::FormatText(b));
  EXPECT_EQ(DifferentialDriver::FormatJson(a),
            DifferentialDriver::FormatJson(b));
}

TEST(DiffDriverTest, RejectsSeedRangesThatWrap) {
  DiffOptions opt = SmallOptions();
  EXPECT_EQ(CheckOptions(opt), "");
  // 8 groups x 2^61 seeds is 2^64 cells: the count wrapped to 0.
  for (const std::uint64_t seeds :
       {std::uint64_t{0}, kMaxSeeds + 1, std::uint64_t{1} << 61}) {
    SCOPED_TRACE("seeds=" + std::to_string(seeds));
    opt.seeds = seeds;
    EXPECT_FALSE(CheckOptions(opt).empty());
    EXPECT_THROW(DifferentialDriver{opt}, std::invalid_argument);
  }
  // The last seed of the range must stay representable.
  opt.seeds = kMaxSeeds;
  opt.seed_base = std::numeric_limits<std::uint64_t>::max() - kMaxSeeds;
  EXPECT_NO_THROW(DifferentialDriver{opt});
  ++opt.seed_base;
  EXPECT_THROW(DifferentialDriver{opt}, std::invalid_argument);
}

TEST(DiffDriverTest, RejectsWalkCountsAboveTheBound) {
  DiffOptions opt = SmallOptions();
  opt.walks = kMaxWalks;
  EXPECT_EQ(CheckOptions(opt), "");
  for (const std::uint64_t walks :
       {kMaxWalks + 1, std::numeric_limits<std::uint64_t>::max()}) {
    SCOPED_TRACE("walks=" + std::to_string(walks));
    opt.walks = walks;
    EXPECT_FALSE(CheckOptions(opt).empty());
    EXPECT_THROW(DifferentialDriver{opt}, std::invalid_argument);
  }
}

TEST(DiffDriverTest, JsonReportIsWellFormed) {
  const DiffReport report = DifferentialDriver(SmallOptions()).Run();
  const std::string json = DifferentialDriver::FormatJson(report);
  // Structural sanity (CI additionally validates with a real JSON parser):
  // balanced braces/brackets outside strings, expected top-level keys.
  long depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (escaped) {
      escaped = false;
    } else if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_NE(json.find("\"conformance_report\""), std::string::npos);
  EXPECT_NE(json.find("\"unexplained_divergences\""), std::string::npos);
}

}  // namespace
}  // namespace cnv::conf
