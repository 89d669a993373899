// MappedFile + chunker contract tests: the invariants the parallel sharded
// ingest depends on (concatenation equals input, no line spans two shards,
// long lines collapse boundaries) plus getline-parity line iteration.
#include "util/mapped_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "scratch_path.hpp"

namespace astra {
namespace {

class MappedFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestScratchPath("astra_mapped_file_test_");
  }
  void TearDown() override { std::filesystem::remove(path_); }

  void WriteBytes(std::string_view bytes) {
    std::ofstream out(path_, std::ios::binary);
    out << bytes;
  }

  std::string path_;
};

TEST_F(MappedFileTest, MissingFileIsNullopt) {
  EXPECT_FALSE(MappedFile::Open(path_ + ".does-not-exist").has_value());
}

TEST_F(MappedFileTest, EmptyFileMapsToEmptyView) {
  WriteBytes("");
  const auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.has_value());
  EXPECT_TRUE(file->Bytes().empty());
}

TEST_F(MappedFileTest, RoundTripsExactBytes) {
  const std::string payload = "line one\nline two\nno terminator";
  WriteBytes(payload);
  const auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(file->Bytes(), payload);
}

TEST_F(MappedFileTest, MoveKeepsViewValid) {
  WriteBytes("abc\ndef\n");
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.has_value());
  const MappedFile moved = std::move(*file);
  EXPECT_EQ(moved.Bytes(), "abc\ndef\n");
}

// --- chunker invariants ------------------------------------------------------

void ExpectShardInvariants(std::string_view bytes,
                           const std::vector<std::string_view>& shards,
                           std::size_t max_shards) {
  EXPECT_LE(shards.size(), max_shards);
  std::string concatenated;
  for (const auto shard : shards) concatenated += shard;
  EXPECT_EQ(concatenated, bytes);
  // Every shard except possibly the last ends at a line boundary, so no line
  // spans two shards.
  for (std::size_t i = 0; i + 1 < shards.size(); ++i) {
    ASSERT_FALSE(shards[i].empty());
    EXPECT_EQ(shards[i].back(), '\n') << "shard " << i << " tore a line";
  }
}

TEST(SplitAtLineBoundariesTest, EmptyInputYieldsNoShards) {
  EXPECT_TRUE(SplitAtLineBoundaries("", 8).empty());
}

TEST(SplitAtLineBoundariesTest, SingleShardIsWholeInput) {
  const std::string_view bytes = "a\nb\nc\n";
  const auto shards = SplitAtLineBoundaries(bytes, 1);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0], bytes);
}

TEST(SplitAtLineBoundariesTest, ManyLinesSplitCleanly) {
  std::string bytes;
  for (int i = 0; i < 1000; ++i) {
    bytes += "record line number " + std::to_string(i) + "\n";
  }
  for (const std::size_t max_shards : {2u, 3u, 4u, 8u, 16u}) {
    const auto shards = SplitAtLineBoundaries(bytes, max_shards);
    ExpectShardInvariants(bytes, shards, max_shards);
    EXPECT_EQ(shards.size(), max_shards);  // plenty of boundaries to use
  }
}

TEST(SplitAtLineBoundariesTest, MissingTrailingNewlineKeepsLastLineIntact) {
  std::string bytes;
  for (int i = 0; i < 100; ++i) bytes += "line " + std::to_string(i) + "\n";
  bytes += "unterminated final line";
  const auto shards = SplitAtLineBoundaries(bytes, 4);
  ExpectShardInvariants(bytes, shards, 4);
  ASSERT_FALSE(shards.empty());
  EXPECT_TRUE(shards.back().ends_with("unterminated final line"));
}

TEST(SplitAtLineBoundariesTest, LineLongerThanChunkCollapsesBoundaries) {
  // One line dwarfing the nominal chunk size must stay whole: the chunker
  // yields fewer shards rather than a torn line.
  const std::string giant(4096, 'x');
  const std::string bytes = "short\n" + giant + "\nshort tail\n";
  const auto shards = SplitAtLineBoundaries(bytes, 8);
  ExpectShardInvariants(bytes, shards, 8);
  bool giant_intact = false;
  for (const auto shard : shards) {
    if (shard.find(giant) != std::string_view::npos) giant_intact = true;
  }
  EXPECT_TRUE(giant_intact) << "giant line was split across shards";
}

TEST(SplitAtLineBoundariesTest, SingleLineWithoutNewlineIsOneShard) {
  const std::string_view bytes = "just one header-sized line, no terminator";
  const auto shards = SplitAtLineBoundaries(bytes, 8);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0], bytes);
}

TEST(SplitAtLineBoundariesTest, MoreShardsThanBytes) {
  const std::string_view bytes = "a\nb\n";
  const auto shards = SplitAtLineBoundaries(bytes, 64);
  ExpectShardInvariants(bytes, shards, 64);
}

// --- line iteration ----------------------------------------------------------

std::vector<std::string> CollectLines(std::string_view bytes) {
  std::vector<std::string> lines;
  ForEachLineInView(bytes, [&](std::string_view line) {
    lines.emplace_back(line);
    return true;
  });
  return lines;
}

TEST(ForEachLineInViewTest, GetlineSemantics) {
  using V = std::vector<std::string>;
  EXPECT_EQ(CollectLines(""), V{});
  EXPECT_EQ(CollectLines("\n"), V{""});
  EXPECT_EQ(CollectLines("a\nb\nc\n"), (V{"a", "b", "c"}));
  // A final unterminated line is still visited.
  EXPECT_EQ(CollectLines("a\nb\nc"), (V{"a", "b", "c"}));
  // A trailing newline does not produce an empty extra line.
  EXPECT_EQ(CollectLines("a\n\nb\n"), (V{"a", "", "b"}));
}

TEST(ForEachLineInViewTest, StripsTrailingCarriageReturn) {
  using V = std::vector<std::string>;
  EXPECT_EQ(CollectLines("a\r\nb\r\n"), (V{"a", "b"}));
  EXPECT_EQ(CollectLines("\r\n"), V{""});
  EXPECT_EQ(CollectLines("tail\r"), V{"tail"});
}

TEST(ForEachLineInViewTest, EarlyStopCountsStoppingLine) {
  int visited = 0;
  const std::size_t count =
      ForEachLineInView("a\nb\nc\nd\n", [&](std::string_view) {
        ++visited;
        return visited < 2;
      });
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(visited, 2);
}

TEST(FirstLineOfTest, SplitsHeaderFromRest) {
  std::string_view rest;
  const auto first = FirstLineOf("header\nbody1\nbody2\n", &rest);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "header");
  EXPECT_EQ(rest, "body1\nbody2\n");
}

TEST(FirstLineOfTest, UnterminatedSingleLine) {
  std::string_view rest;
  const auto first = FirstLineOf("only line", &rest);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "only line");
  EXPECT_TRUE(rest.empty());
}

TEST(FirstLineOfTest, EmptyInputIsNullopt) {
  EXPECT_FALSE(FirstLineOf("").has_value());
}

}  // namespace
}  // namespace astra
