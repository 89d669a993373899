#include "util/file_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace astra {
namespace {

class FileIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "astra_file_io_test.txt";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(FileIoTest, WriteThenReadRoundTrip) {
  const std::vector<std::string> lines = {"first", "second", "", "fourth"};
  ASSERT_TRUE(WriteLines(path_, lines));
  const auto back = ReadLines(path_);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, lines);
}

TEST_F(FileIoTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadLines("/nonexistent/definitely/missing.txt").has_value());
}

TEST_F(FileIoTest, StripsCarriageReturns) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "dos line\r\nunix line\n";
  }
  const auto lines = ReadLines(path_);
  ASSERT_TRUE(lines.has_value());
  ASSERT_EQ(lines->size(), 2u);
  EXPECT_EQ((*lines)[0], "dos line");
  EXPECT_EQ((*lines)[1], "unix line");
}

TEST_F(FileIoTest, WriteToBadPathFails) {
  EXPECT_FALSE(WriteLines("/nonexistent/dir/file.txt", {"x"}));
}

}  // namespace
}  // namespace astra
