// Each CLI declares its flags once, in a flags::Spec table from which the
// parser, the usage text and every flag error are generated
// (util/flags.hpp).  What is left to drift is the header comment that
// documents the flags, so this test reads each CLI's source (paths baked in
// via ASTRA_MRT_CLI_SRC, ASTRA_SERVE_CLI_SRC and ASTRA_LINT_CLI_SRC) and
// asserts the header's flag set equals the table's: adding a flag to the
// table without documenting it, or documenting one the table lacks, fails
// here instead of confusing a user.
#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <set>
#include <string>
#include <string_view>

#include "util/file_io.hpp"

namespace astra {
namespace {

std::string CliSource(const char* path = ASTRA_MRT_CLI_SRC) {
  const auto bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.has_value()) << path;
  return bytes.value_or(std::string{});
}

// The `//` comment block at the top of the file.
std::string_view HeaderComment(std::string_view src) {
  std::size_t end = 0;
  while (end < src.size()) {
    const std::size_t eol = src.find('\n', end);
    if (eol == std::string_view::npos) break;
    const std::string_view line = src.substr(end, eol - end);
    if (line.substr(0, 2) != "//") break;
    end = eol + 1;
  }
  return src.substr(0, end);
}

// The CLI's flag table: from `flags = {` to the first "};" after it.
std::string_view FlagTable(std::string_view src) {
  const std::size_t begin = src.find("flags = {");
  EXPECT_NE(begin, std::string_view::npos);
  if (begin == std::string_view::npos) return {};
  const std::size_t end = src.find("};", begin);
  EXPECT_NE(end, std::string_view::npos);
  if (end == std::string_view::npos) return {};
  return src.substr(begin, end - begin);
}

// Concatenate the double-quoted string literals in a code region, so flag
// extraction never sees identifiers or operators.
std::string StringLiterals(std::string_view code) {
  std::string out;
  bool in_string = false;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (in_string && c == '\\') {
      ++i;  // skip the escaped character
      continue;
    }
    if (c == '"') {
      in_string = !in_string;
      out += ' ';
      continue;
    }
    if (in_string) out += c;
  }
  return out;
}

// Every `--name` token (lowercase name, may contain digits and dashes).
std::set<std::string> Flags(std::string_view text) {
  std::set<std::string> flags;
  for (std::size_t i = 0; i + 2 < text.size(); ++i) {
    if (text[i] != '-' || text[i + 1] != '-') continue;
    if (i > 0 && text[i - 1] == '-') continue;  // inside a longer dash run
    std::size_t end = i + 2;
    if (std::islower(static_cast<unsigned char>(text[end])) == 0) continue;
    while (end < text.size() &&
           (std::islower(static_cast<unsigned char>(text[end])) != 0 ||
            std::isdigit(static_cast<unsigned char>(text[end])) != 0 ||
            text[end] == '-')) {
      ++end;
    }
    std::string flag(text.substr(i, end - i));
    while (!flag.empty() && flag.back() == '-') flag.pop_back();
    flags.insert(std::move(flag));
    i = end;
  }
  return flags;
}

std::string Join(const std::set<std::string>& flags) {
  std::string out;
  for (const std::string& flag : flags) {
    if (!out.empty()) out += ' ';
    out += flag;
  }
  return out;
}

struct CliSurfaces {
  const char* name;    // test instance name
  const char* source;  // path of the CLI's source file
};

// gtest prints the parameter in failure messages and in the test list that
// gtest_discover_tests turns into ctest names: print the CLI's name, not its
// pointer bytes, so both stay the same from build to build.
void PrintTo(const CliSurfaces& cli, std::ostream* out) { *out << cli.name; }

class UsageDriftTest : public ::testing::TestWithParam<CliSurfaces> {};

// The three surfaces are the header comment, the parser and the usage text;
// the table is the last two, so header == table covers all three.
TEST_P(UsageDriftTest, AllThreeFlagSurfacesAgree) {
  const CliSurfaces& cli = GetParam();
  const std::string src = CliSource(cli.source);
  ASSERT_FALSE(src.empty());

  std::set<std::string> header = Flags(HeaderComment(src));
  const std::set<std::string> table = Flags(StringLiterals(FlagTable(src)));
  // `--help` is answered by the flag module itself, not a table entry.
  header.erase("--help");

  ASSERT_FALSE(table.empty());
  EXPECT_EQ(header, table) << "header comment documents {" << Join(header)
                           << "}\nbut the " << cli.name << " flag table declares {"
                           << Join(table) << "}";
  EXPECT_NE(src.find("flags::Reply("), std::string::npos)
      << cli.name << " must answer --help with the usage generated from its table";
}

INSTANTIATE_TEST_SUITE_P(
    Cli, UsageDriftTest,
    ::testing::Values(
        CliSurfaces{"astra_mrt", ASTRA_MRT_CLI_SRC},
        CliSurfaces{"astra_serve", ASTRA_SERVE_CLI_SRC},
        CliSurfaces{"astra_lint", ASTRA_LINT_CLI_SRC}),
    [](const ::testing::TestParamInfo<CliSurfaces>& instance) {
      return std::string(instance.param.name);
    });

TEST(UsageDriftTest, ParserCoversTheFullSurface) {
  // A floor on the flag count so a refactor that empties the table (and
  // trivially satisfies set equality) cannot pass silently.
  const std::set<std::string> table = Flags(StringLiterals(FlagTable(CliSource())));
  EXPECT_GE(table.size(), 20u) << Join(table);
  EXPECT_TRUE(table.count("--grid") == 1) << Join(table);
  EXPECT_TRUE(table.count("--json") == 1) << Join(table);
  EXPECT_TRUE(table.count("--trials") == 1) << Join(table);
}

}  // namespace
}  // namespace astra
