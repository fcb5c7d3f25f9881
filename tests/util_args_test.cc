// Strict CLI parsing: every malformed input — unknown flag, non-numeric
// value, missing value, out-of-range count, excess positional — must be a
// hard error with the usage text on stderr and exit status 2, never a
// silently swallowed misconfiguration.
#include "util/args.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace cnv::args {
namespace {

// Owns the backing storage for a fake argv.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : strings_(std::move(args)) {
    ptrs_.reserve(strings_.size());
    for (auto& s : strings_) ptrs_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char* const* argv() const { return ptrs_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> ptrs_;
};

constexpr char kUsage[] = "usage: prog [seeds] [--jobs N]";

TEST(ParseI64Test, AcceptsWholeBase10Integers) {
  std::int64_t v = 0;
  EXPECT_TRUE(ParseI64("0", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseI64("-5", &v));
  EXPECT_EQ(v, -5);
  EXPECT_TRUE(ParseI64("9223372036854775807", &v));
  EXPECT_EQ(v, std::numeric_limits<std::int64_t>::max());
  EXPECT_TRUE(ParseI64("-9223372036854775808", &v));
  EXPECT_EQ(v, std::numeric_limits<std::int64_t>::min());
}

TEST(ParseI64Test, RejectsEverythingElse) {
  std::int64_t v = 0;
  for (const char* bad : {"", " ", "12x", "x12", "4.5", "1 ", " 1", "--3",
                          "0x10", "1e3", "9223372036854775808"}) {
    EXPECT_FALSE(ParseI64(bad, &v)) << "'" << bad << "'";
  }
}

TEST(ParseU64Test, AcceptsUnsignedRange) {
  std::uint64_t v = 0;
  EXPECT_TRUE(ParseU64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseU64("18446744073709551615", &v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseU64Test, RejectsNegativesAndGarbage) {
  std::uint64_t v = 0;
  for (const char* bad :
       {"-3", "-0", "", "4.5", "12x", "18446744073709551616"}) {
    EXPECT_FALSE(ParseU64(bad, &v)) << "'" << bad << "'";
  }
}

TEST(ArgParserTest, FlagsValuesAndPositionalsParse) {
  const Argv a({"prog", "--robust", "12", "--jobs", "4", "--out", "x.json",
                "--seed", "7", "plan"});
  ArgParser p(a.argc(), a.argv(), kUsage);
  EXPECT_TRUE(p.Flag("--robust"));
  EXPECT_FALSE(p.Flag("--quiet"));
  int jobs = 0;
  EXPECT_TRUE(p.IntValue("--jobs", &jobs, 0));
  EXPECT_EQ(jobs, 4);
  std::uint64_t seed = 0;
  EXPECT_TRUE(p.U64Value("--seed", &seed));
  EXPECT_EQ(seed, 7u);
  std::string out;
  EXPECT_TRUE(p.StrValue("--out", &out));
  EXPECT_EQ(out, "x.json");
  EXPECT_EQ(p.Finish(2), (std::vector<std::string>{"12", "plan"}));
}

TEST(ArgParserTest, AbsentValuedFlagLeavesDefaultUntouched) {
  const Argv a({"prog"});
  ArgParser p(a.argc(), a.argv(), kUsage);
  int jobs = 3;
  EXPECT_FALSE(p.IntValue("--jobs", &jobs, 0));
  EXPECT_EQ(jobs, 3);
  std::int64_t timeout = -1;
  EXPECT_FALSE(p.I64Value("--timeout-ms", &timeout));
  EXPECT_EQ(timeout, -1);
  EXPECT_TRUE(p.Finish(0).empty());
}

TEST(ArgParserTest, LastOccurrenceWins) {
  const Argv a({"prog", "--jobs", "2", "--jobs", "5"});
  ArgParser p(a.argc(), a.argv(), kUsage);
  int jobs = 0;
  EXPECT_TRUE(p.IntValue("--jobs", &jobs, 0));
  EXPECT_EQ(jobs, 5);
  EXPECT_TRUE(p.Finish(0).empty());  // both occurrences were consumed
}

TEST(ArgParserTest, EqualsFormParsesEveryValuedFlavor) {
  const Argv a({"prog", "--jobs=4", "--seed=7", "--timeout-ms=-250",
                "--out=x.json", "--rate=0.25", "plan"});
  ArgParser p(a.argc(), a.argv(), kUsage);
  int jobs = 0;
  EXPECT_TRUE(p.IntValue("--jobs", &jobs, 0));
  EXPECT_EQ(jobs, 4);
  std::uint64_t seed = 0;
  EXPECT_TRUE(p.U64Value("--seed", &seed));
  EXPECT_EQ(seed, 7u);
  std::int64_t timeout = 0;
  EXPECT_TRUE(p.I64Value("--timeout-ms", &timeout));
  EXPECT_EQ(timeout, -250);
  std::string out;
  EXPECT_TRUE(p.StrValue("--out", &out));
  EXPECT_EQ(out, "x.json");
  double rate = 0.0;
  EXPECT_TRUE(p.DoubleValue("--rate", &rate));
  EXPECT_DOUBLE_EQ(rate, 0.25);
  EXPECT_EQ(p.Finish(1), (std::vector<std::string>{"plan"}));
}

TEST(ArgParserTest, EqualsFormValueMayContainEquals) {
  // Only the first '=' separates flag from value.
  const Argv a({"prog", "--out=key=value"});
  ArgParser p(a.argc(), a.argv(), kUsage);
  std::string out;
  EXPECT_TRUE(p.StrValue("--out", &out));
  EXPECT_EQ(out, "key=value");
  EXPECT_TRUE(p.Finish(0).empty());
}

TEST(ArgParserTest, EqualsAndSpaceFormsMixWithLastWins) {
  const Argv a({"prog", "--jobs", "2", "--jobs=9"});
  ArgParser p(a.argc(), a.argv(), kUsage);
  int jobs = 0;
  EXPECT_TRUE(p.IntValue("--jobs", &jobs, 0));
  EXPECT_EQ(jobs, 9);
  EXPECT_TRUE(p.Finish(0).empty());
}

TEST(ArgParserTest, EqualsFormDoesNotMatchFlagPrefixes) {
  // "--j=4" must not be consumed by "--jobs", and a bare Flag() never
  // consumes an "=" spelling.
  const Argv a({"prog", "--jobs-max=4"});
  ArgParser p(a.argc(), a.argv(), kUsage);
  int jobs = 0;
  EXPECT_FALSE(p.IntValue("--jobs", &jobs, 0));
  EXPECT_FALSE(p.Flag("--jobs-max"));
  std::int64_t jobs_max = 0;
  EXPECT_TRUE(p.I64Value("--jobs-max", &jobs_max));
  EXPECT_EQ(jobs_max, 4);
  EXPECT_TRUE(p.Finish(0).empty());
}

// Fatal paths: the parser prints usage and exits with status 2.
int ParseAndFinish(const std::vector<std::string>& args,
                   std::size_t max_positional = 0) {
  const Argv a(args);
  ArgParser p(a.argc(), a.argv(), kUsage);
  int jobs = 0;
  p.IntValue("--jobs", &jobs, 0, /*max_value=*/64);
  std::uint64_t seed = 0;
  p.U64Value("--seed", &seed);
  p.Finish(max_positional);
  return jobs;
}

TEST(ArgParserDeathTest, UnknownFlagIsFatal) {
  EXPECT_EXIT(ParseAndFinish({"prog", "--jbos", "4"}),
              testing::ExitedWithCode(2), "usage: prog");
}

TEST(ArgParserDeathTest, NonNumericJobsIsFatal) {
  EXPECT_EXIT(ParseAndFinish({"prog", "--jobs", "four"}),
              testing::ExitedWithCode(2), "usage: prog");
}

TEST(ArgParserDeathTest, NegativeJobsIsFatal) {
  EXPECT_EXIT(ParseAndFinish({"prog", "--jobs", "-2"}),
              testing::ExitedWithCode(2), "usage: prog");
}

TEST(ArgParserDeathTest, JobsAboveCeilingIsFatal) {
  EXPECT_EXIT(ParseAndFinish({"prog", "--jobs", "65"}),
              testing::ExitedWithCode(2), "must be <= 64");
}

TEST(ArgParserDeathTest, NegativeSeedIsFatal) {
  EXPECT_EXIT(ParseAndFinish({"prog", "--seed", "-1"}),
              testing::ExitedWithCode(2), "usage: prog");
}

TEST(ArgParserDeathTest, MissingValueIsFatal) {
  EXPECT_EXIT(ParseAndFinish({"prog", "--jobs"}),
              testing::ExitedWithCode(2), "usage: prog");
}

TEST(ArgParserDeathTest, EqualsFormNonNumericIsFatal) {
  EXPECT_EXIT(ParseAndFinish({"prog", "--jobs=four"}),
              testing::ExitedWithCode(2), "usage: prog");
}

TEST(ArgParserDeathTest, EqualsFormEmptyValueIsFatal) {
  EXPECT_EXIT(ParseAndFinish({"prog", "--seed="}),
              testing::ExitedWithCode(2), "usage: prog");
}

TEST(ArgParserDeathTest, ExcessPositionalsAreFatal) {
  EXPECT_EXIT(ParseAndFinish({"prog", "one", "two"}, /*max_positional=*/1),
              testing::ExitedWithCode(2), "usage: prog");
}

double ParseDouble(const std::vector<std::string>& args) {
  const Argv a(args);
  ArgParser p(a.argc(), a.argv(), kUsage);
  double rate = 0.0;
  p.DoubleValue("--rate", &rate);
  p.Finish(0);
  return rate;
}

TEST(ArgParserDeathTest, NegativeNanIsFatal) {
  EXPECT_EXIT(ParseDouble({"prog", "--rate", "-nan"}),
              testing::ExitedWithCode(2), "not a number: '-nan'");
}

TEST(ArgParserDeathTest, NegativeInfinityIsFatal) {
  EXPECT_EXIT(ParseDouble({"prog", "--rate=-inf"}),
              testing::ExitedWithCode(2), "not a number: '-inf'");
}

TEST(ArgParserDeathTest, ExplicitFailExitsWithUsage) {
  const Argv a({"prog"});
  const ArgParser p(a.argc(), a.argv(), kUsage);
  EXPECT_EXIT(p.Fail("--storm-scale must be > 0"),
              testing::ExitedWithCode(2), "--storm-scale must be > 0");
}

}  // namespace
}  // namespace cnv::args
