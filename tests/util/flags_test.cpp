// The flag table contract: a flag is parsed only by the commands that read
// it, a value must parse whole and lie in its range and its field's type,
// the first error wins, the flags given are recorded, and the usage text is
// generated from the same table.
#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace astra::flags {
namespace {

constexpr Commands kRun = 1, kList = 2;

struct Options {
  int count = 7;
  unsigned threads = 0;
  std::int64_t window = 60;
  std::uint64_t seed = 5;
  double fraction = 0.05;
  std::string out;
  bool strict = false;
  bool json = false;
};

Spec TestSpec(Options& o) {
  return {"tool",
          "tool — a test surface",
          {{"run", "DIR"}, {"list"}},
          {{"--count", "N", &o.count, {1, 100}, kRun | kList},
           {"--threads", "N", &o.threads, {1, 1024}, kRun},
           {"--window", "SEC", &o.window, {0}, kRun},
           {"--seed", "S", &o.seed, {}, kRun},
           {"--fraction", "F", &o.fraction, {0, 1}, kRun},
           {"--out", "FILE", &o.out, kRun},
           {"--strict", &o.strict, true, kRun},
           {"--lenient", &o.strict, false, kRun},
           {"--json", &o.json, true, kList}},
          "epilogue line\n"};
}

Parsed ParseArgs(const Spec& spec, std::vector<std::string> args) {
  args.insert(args.begin(), "tool");
  std::vector<const char*> argv;
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return Parse(spec, static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, AppliesEveryKindOfFlagTheCommandReads) {
  Options o;
  const Spec spec = TestSpec(o);
  const Parsed parsed =
      ParseArgs(spec, {"run", "data", "--count=100", "--threads=1024", "--window=0",
                 "--seed=18446744073709551615", "--fraction=1", "--out=x.txt",
                 "--strict"});
  EXPECT_EQ(parsed.error, "");
  EXPECT_EQ(parsed.command, kRun);
  EXPECT_EQ(parsed.positionals, std::vector<std::string>{"data"});
  EXPECT_EQ(o.count, 100);
  EXPECT_EQ(o.threads, 1024u);
  EXPECT_EQ(o.window, 0);
  EXPECT_EQ(o.seed, 18446744073709551615u);
  EXPECT_EQ(o.fraction, 1.0);
  EXPECT_EQ(o.out, "x.txt");
  EXPECT_TRUE(o.strict);
}

TEST(FlagsTest, AnUnknownFlagIsRefused) {
  Options o;
  const Parsed parsed = ParseArgs(TestSpec(o), {"run", "--cuont=3"});
  EXPECT_EQ(parsed.error, "tool run: unknown flag '--cuont=3' (see `tool --help`)");
  EXPECT_EQ(o.count, 7);
}

TEST(FlagsTest, AFlagOfAnotherCommandIsRefused) {
  Options o;
  const Spec spec = TestSpec(o);
  EXPECT_EQ(ParseArgs(spec, {"list", "--threads=2"}).error,
            "tool list: --threads is not a flag of `list`");
  EXPECT_EQ(ParseArgs(spec, {"run", "--json"}).error,
            "tool run: --json is not a flag of `run`");
  EXPECT_EQ(o.threads, 0u);
  EXPECT_FALSE(o.json);
  EXPECT_EQ(ParseArgs(spec, {"list", "--count=3", "--json"}).error, "");
  EXPECT_TRUE(o.json);
}

TEST(FlagsTest, ValuesOutOfRangeAreRefusedAtEachEnd) {
  Options o;
  const Spec spec = TestSpec(o);
  EXPECT_EQ(ParseArgs(spec, {"run", "--count=0"}).error,
            "tool run: --count=N expects an integer in [1, 100], got '0'");
  EXPECT_EQ(ParseArgs(spec, {"run", "--count=101"}).error,
            "tool run: --count=N expects an integer in [1, 100], got '101'");
  EXPECT_NE(ParseArgs(spec, {"run", "--threads=0"}).error, "");
  EXPECT_NE(ParseArgs(spec, {"run", "--threads=1025"}).error, "");
  EXPECT_EQ(ParseArgs(spec, {"run", "--window=-1"}).error,
            "tool run: --window=SEC expects an integer >= 0, got '-1'");
  EXPECT_EQ(ParseArgs(spec, {"run", "--fraction=-0.01"}).error,
            "tool run: --fraction=F expects a number in [0, 1], got '-0.01'");
  EXPECT_NE(ParseArgs(spec, {"run", "--fraction=1.01"}).error, "");
  EXPECT_EQ(o.count, 7);
  EXPECT_EQ(o.threads, 0u);
  EXPECT_EQ(o.window, 60);
  EXPECT_EQ(o.fraction, 0.05);
}

TEST(FlagsTest, TheFieldTypeBoundsAnOpenRange) {
  Options o;
  const Spec spec = TestSpec(o);
  EXPECT_NE(ParseArgs(spec, {"run", "--seed=18446744073709551616"}).error, "");
  EXPECT_NE(ParseArgs(spec, {"run", "--seed=-1"}).error, "");
  EXPECT_EQ(ParseArgs(spec, {"run", "--window=9223372036854775807"}).error, "");
  EXPECT_NE(ParseArgs(spec, {"run", "--window=9223372036854775808"}).error, "");
}

TEST(FlagsTest, MalformedNumbersAreRefused) {
  Options o;
  const Spec spec = TestSpec(o);
  for (const char* bad : {"--count=3abc", "--count=", "--count=1.5", "--count=+3",
                          "--count= 3", "--threads=-2", "--fraction=abc",
                          "--fraction=nan", "--seed=0x10"}) {
    EXPECT_NE(ParseArgs(spec, {"run", bad}).error, "") << bad;
  }
  EXPECT_EQ(o.count, 7);
}

TEST(FlagsTest, ASwitchTakesNoValueAndAValuedFlagNeedsOne) {
  Options o;
  const Spec spec = TestSpec(o);
  EXPECT_EQ(ParseArgs(spec, {"run", "--strict=1"}).error,
            "tool run: --strict takes no value");
  EXPECT_FALSE(o.strict);
  EXPECT_EQ(ParseArgs(spec, {"run", "--count"}).error,
            "tool run: --count=N needs a value");
  EXPECT_EQ(ParseArgs(spec, {"run", "--strict", "--lenient"}).error, "");
  EXPECT_FALSE(o.strict);  // the last of two switches on one field wins
  EXPECT_EQ(ParseArgs(spec, {"run", "--out="}).error, "");
}

TEST(FlagsTest, RecordsWhichFlagsWereGiven) {
  Options o;
  const Parsed parsed = ParseArgs(TestSpec(o), {"run", "--seed=9", "--strict"});
  EXPECT_TRUE(parsed.Given("--seed"));
  EXPECT_TRUE(parsed.Given("--strict"));
  EXPECT_FALSE(parsed.Given("--count"));
  EXPECT_FALSE(parsed.Given("--lenient"));

  const Parsed refused = ParseArgs(TestSpec(o), {"run", "--count=0"});
  EXPECT_FALSE(refused.Given("--count"));  // a refused value is not given
}

TEST(FlagsTest, TheFirstErrorWins) {
  Options o;
  const Spec spec = TestSpec(o);
  EXPECT_EQ(ParseArgs(spec, {"run", "--count=0", "--bogus", "--json"}).error,
            "tool run: --count=N expects an integer in [1, 100], got '0'");
  EXPECT_EQ(ParseArgs(spec, {"run", "--bogus", "--count=0"}).error,
            "tool run: unknown flag '--bogus' (see `tool --help`)");
}

TEST(FlagsTest, PositionalsFollowTheCommand) {
  Options o;
  const Spec spec = TestSpec(o);
  EXPECT_EQ(ParseArgs(spec, {"run", "a", "b"}).error,
            "tool run: unexpected argument 'b'");
  EXPECT_EQ(ParseArgs(spec, {"list", "a"}).error, "tool list: unexpected argument 'a'");
  EXPECT_EQ(ParseArgs(spec, {"walk"}).error,
            "tool: unknown command 'walk' (see `tool --help`)");

  bool json = false;
  const Spec many{"lint", "", {{"", "PATH..."}}, {{"--json", &json}}, ""};
  const Parsed parsed = ParseArgs(many, {"a", "--json", "b"});
  EXPECT_EQ(parsed.error, "");
  EXPECT_EQ(parsed.positionals, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(json);
}

TEST(FlagsTest, HelpIsAnsweredAnywhere) {
  Options o;
  const Spec spec = TestSpec(o);
  EXPECT_TRUE(ParseArgs(spec, {"help"}).help);
  EXPECT_TRUE(ParseArgs(spec, {"--help"}).help);
  EXPECT_TRUE(ParseArgs(spec, {"run", "--bogus", "--help"}).help);
  EXPECT_TRUE(ParseArgs(spec, {"list", "-h"}).help);
  EXPECT_FALSE(ParseArgs(spec, {"list"}).help);
}

TEST(FlagsTest, UsageListsEachCommandsFlagsFromTheTable) {
  Options o;
  std::ostringstream out;
  PrintUsage(out, TestSpec(o));
  EXPECT_EQ(out.str(),
            "tool — a test surface\n"
            "\n"
            "usage:\n"
            "  tool run DIR [--count=N] [--threads=N] [--window=SEC] [--seed=S]\n"
            "               [--fraction=F] [--out=FILE] [--strict] [--lenient]\n"
            "  tool list [--count=N] [--json]\n"
            "\n"
            "epilogue line\n");
}

}  // namespace
}  // namespace astra::flags
