// Per-test scratch directories for tests that write files.
//
// ctest runs every test case as its own process, several at once, so tests
// that share one directory see each other's files mid-write (a concurrent
// save's `*.ckpt.tmp`, for one). TestTempDir() gives each test
// TempDir()/<suite>/<test>/ instead, emptied the first time a process asks
// for it so a crashed earlier run leaves nothing behind.
#pragma once

#include <filesystem>
#include <set>

#include "gtest/gtest.h"

namespace cnv::test {

inline std::filesystem::path TestTempDir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / info->test_suite_name() /
      info->name();
  static std::set<std::filesystem::path> emptied;
  if (emptied.insert(dir).second) std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace cnv::test
