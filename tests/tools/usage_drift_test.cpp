// Each CLI documents its flags in three places: the header comment, its flag
// parser, and PrintUsage.  Nothing but convention keeps them aligned, so
// this test reads each CLI's source (paths baked in via ASTRA_MRT_CLI_SRC,
// ASTRA_SERVE_CLI_SRC and ASTRA_LINT_CLI_SRC) and asserts the three flag
// sets are identical — adding a flag to the parser without documenting it,
// documenting one the parser rejects, or removing a flag from only some
// surfaces fails here instead of confusing a user.
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

// From the line containing `marker` to the first subsequent line that is
// exactly "}" — the function's closing brace at file scope.
std::string_view FunctionBody(std::string_view src, std::string_view marker) {
  const std::size_t begin = src.find(marker);
  EXPECT_NE(begin, std::string_view::npos) << marker;
  if (begin == std::string_view::npos) return {};
  const std::size_t end = src.find("\n}\n", begin);
  EXPECT_NE(end, std::string_view::npos) << marker;
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
  const char* parser;  // first line of the function that parses its flags
};

// gtest prints the parameter in failure messages and in the test list that
// gtest_discover_tests turns into ctest names: print the CLI's name, not its
// pointer bytes, so both stay the same from build to build.
void PrintTo(const CliSurfaces& cli, std::ostream* out) { *out << cli.name; }

class UsageDriftTest : public ::testing::TestWithParam<CliSurfaces> {};

TEST_P(UsageDriftTest, AllThreeFlagSurfacesAgree) {
  const CliSurfaces& cli = GetParam();
  const std::string src = CliSource(cli.source);
  ASSERT_FALSE(src.empty());

  std::set<std::string> header = Flags(HeaderComment(src));
  std::set<std::string> parser =
      Flags(StringLiterals(FunctionBody(src, cli.parser)));
  std::set<std::string> usage =
      Flags(StringLiterals(FunctionBody(src, "void PrintUsage(")));
  // `--help` is the help command itself, not a documented flag.
  for (std::set<std::string>* flags : {&header, &parser, &usage}) {
    flags->erase("--help");
  }

  ASSERT_FALSE(parser.empty());
  EXPECT_EQ(header, parser) << "header comment documents {" << Join(header)
                            << "}\nbut the " << cli.name
                            << " parser handles {" << Join(parser) << "}";
  EXPECT_EQ(usage, parser) << "PrintUsage documents {" << Join(usage)
                           << "}\nbut the " << cli.name
                           << " parser handles {" << Join(parser) << "}";
}

INSTANTIATE_TEST_SUITE_P(
    Cli, UsageDriftTest,
    ::testing::Values(
        CliSurfaces{"astra_mrt", ASTRA_MRT_CLI_SRC, "CliOptions ParseCommon("},
        CliSurfaces{"astra_serve", ASTRA_SERVE_CLI_SRC,
                    "ServeCliOptions ParseServeFlags("},
        CliSurfaces{"astra_lint", ASTRA_LINT_CLI_SRC, "int main("}),
    [](const ::testing::TestParamInfo<CliSurfaces>& instance) {
      return std::string(instance.param.name);
    });

TEST(UsageDriftTest, ParserCoversTheFullSurface) {
  // A floor on the flag count so a refactor that empties a region (and
  // trivially satisfies set equality) cannot pass silently.
  const std::set<std::string> parser =
      Flags(StringLiterals(FunctionBody(CliSource(), "CliOptions ParseCommon(")));
  EXPECT_GE(parser.size(), 20u) << Join(parser);
  EXPECT_TRUE(parser.count("--grid") == 1) << Join(parser);
  EXPECT_TRUE(parser.count("--json") == 1) << Join(parser);
  EXPECT_TRUE(parser.count("--trials") == 1) << Join(parser);
}

}  // namespace
}  // namespace astra
