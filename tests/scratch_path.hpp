// Per-process scratch paths for the test suites.  gtest's TempDir() is one
// directory for every process on the host, so two builds' copies of one
// suite running at once would share — and tear — each other's files unless
// every path carries the process id.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <string_view>

namespace astra {

// TempDir() + `name` + "_" + this process's id.
[[nodiscard]] inline std::string ScratchPath(std::string_view name) {
  return ::testing::TempDir() + std::string(name) + "_" + std::to_string(::getpid());
}

// ScratchPath of `prefix` followed by the running test's name.
[[nodiscard]] inline std::string TestScratchPath(std::string_view prefix) {
  return ScratchPath(std::string(prefix) +
                     ::testing::UnitTest::GetInstance()->current_test_info()->name());
}

}  // namespace astra
