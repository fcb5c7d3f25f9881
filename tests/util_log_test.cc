// The CNV_LOG_* macros gate on the level before building the line: a
// disabled level must not evaluate a single `<<` operand.
#include "util/log.h"

#include <gtest/gtest.h>

#include <string>

namespace cnv {
namespace {

class LogLevelTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = GetLogLevel(); }
  void TearDown() override { SetLogLevel(saved_); }

 private:
  LogLevel saved_ = LogLevel::kWarn;
};

TEST_F(LogLevelTest, DisabledLevelEvaluatesNoOperand) {
  SetLogLevel(LogLevel::kWarn);
  int evaluated = 0;
  const auto operand = [&evaluated] {
    ++evaluated;
    return std::string("formatted");
  };
  CNV_LOG_DEBUG << operand();
  CNV_LOG_INFO << operand() << operand();
  EXPECT_EQ(evaluated, 0);
  SetLogLevel(LogLevel::kOff);
  CNV_LOG_ERROR << operand();
  EXPECT_EQ(evaluated, 0);
}

TEST_F(LogLevelTest, EnabledLevelEvaluatesEveryOperand) {
  SetLogLevel(LogLevel::kDebug);
  int evaluated = 0;
  const auto operand = [&evaluated] {
    ++evaluated;
    return std::string("formatted");
  };
  testing::internal::CaptureStderr();
  CNV_LOG_DEBUG << operand() << " and " << operand();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(evaluated, 2);
  EXPECT_EQ(err, "[DEBUG] formatted and formatted\n");
}

TEST_F(LogLevelTest, LogEnabledFollowsTheLevel) {
  SetLogLevel(LogLevel::kWarn);
  EXPECT_FALSE(LogEnabled(LogLevel::kDebug));
  EXPECT_FALSE(LogEnabled(LogLevel::kInfo));
  EXPECT_TRUE(LogEnabled(LogLevel::kWarn));
  EXPECT_TRUE(LogEnabled(LogLevel::kError));
  SetLogLevel(LogLevel::kOff);
  EXPECT_FALSE(LogEnabled(LogLevel::kError));
}

}  // namespace
}  // namespace cnv
