#include "lint/rules.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "lint/engine.hpp"
#include "lint/lexer.hpp"
#include "lint/lock_regions.hpp"
#include "scratch_path.hpp"

namespace astra::lint {
namespace {

namespace fs = std::filesystem;

// Convenience: lint one in-memory source under a given repo path.
LintResult LintAt(const std::string& path, const std::string& source) {
  return LintSource(path, source, LintOptions{});
}

TEST(RulesTest, StreamMayReadWallClocksForPolling) {
  const LintResult result = LintAt(
      "src/stream/poll.cpp",
      "#include <chrono>\n"
      "namespace astra::stream {\n"
      "long Now() { return std::chrono::system_clock::now().time_since_epoch()"
      ".count(); }\n"
      "}\n");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(RulesTest, SimTimeOwnsTheWallClockBoundary) {
  const LintResult result = LintAt(
      "src/util/sim_time.cpp",
      "#include <ctime>\n"
      "long Wall() { return static_cast<long>(time(nullptr)); }\n");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(RulesTest, RandomDeviceIsBannedEvenInStream) {
  const LintResult result = LintAt(
      "src/stream/entropy.cpp",
      "#include <random>\n"
      "unsigned Seed() { return std::random_device{}(); }\n");
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].rule, Rule::kDetRandom);
}

TEST(RulesTest, VoidCastIsAnExplicitDiscard) {
  const LintResult result = LintAt(
      "src/core/touch.cpp",
      "#include <string>\n"
      "void Touch(const std::string& path) { (void)ReadFileBytes(path); }\n");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(RulesTest, ConsumedStatusIsClean) {
  const LintResult result = LintAt(
      "src/core/touch.cpp",
      "#include <string>\n"
      "bool Touch(const std::string& path) {\n"
      "  const auto bytes = ReadFileBytes(path);\n"
      "  return bytes.has_value();\n"
      "}\n");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(RulesTest, DiscardedCheckpointFileStatusIsFlagged) {
  const LintResult result = LintAt(
      "src/serve/save.cpp",
      "#include <string>\n"
      "namespace astra::serve {\n"
      "void Save(const std::string& path, const Fill& fill,\n"
      "          const Decode& decode) {\n"
      "  stream::WriteCheckpointFile(path, \"ASTRASRV\", 2, fill, retry);\n"
      "  stream::ReadCheckpointFile(path, \"ASTRASRV\", 2, decode, fill, retry);\n"
      "}\n"
      "}  // namespace astra::serve\n");
  ASSERT_EQ(result.diagnostics.size(), 2u);
  EXPECT_EQ(result.diagnostics[0].rule, Rule::kErrIgnoredStatus);
  EXPECT_EQ(result.diagnostics[0].line, 5);
  EXPECT_EQ(result.diagnostics[1].rule, Rule::kErrIgnoredStatus);
  EXPECT_EQ(result.diagnostics[1].line, 6);
}

TEST(RulesTest, MemberNamedExitIsNotAProcessKill) {
  const LintResult result = LintAt(
      "src/core/state.cpp",
      "struct Status { void exit(); };\n"
      "void Leave(Status& status) { status.exit(); }\n");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(RulesTest, ToolsOwnTheProcessExit) {
  const LintResult result = LintAt(
      "src/tools/cli.cpp",
      "#include <cstdlib>\n"
      "void Die() { std::exit(2); }\n");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(RulesTest, PointerKeyRequiresStdQualification) {
  const LintResult unqualified = LintAt(
      "src/core/index.cpp",
      "template <typename K, typename V> struct map {};\n"
      "struct Node;\n"
      "map<Node*, int> local;\n");
  EXPECT_TRUE(unqualified.diagnostics.empty());

  const LintResult qualified = LintAt(
      "src/core/index.cpp",
      "#include <map>\n"
      "struct Node;\n"
      "std::map<const Node*, int> by_ptr;\n");
  ASSERT_EQ(qualified.diagnostics.size(), 1u);
  EXPECT_EQ(qualified.diagnostics[0].rule, Rule::kDetPointerKey);
}

TEST(RulesTest, StdHashIsFlaggedInEveryLayerButOnlyWhenQualified) {
  // Its values differ across standard libraries and builds, so no layer may
  // let one reach a report or a checkpoint.
  for (const char* path : {"src/logs/dedup.cpp", "src/faultsim/seed.hpp"}) {
    SCOPED_TRACE(path);
    const LintResult result = LintAt(
        path,
        "#pragma once\n"
        "#include <functional>\n"
        "unsigned long Key(int v) {\n"
        "  return std::hash<int>{}(v);  // a comment naming std::hash is fine\n"
        "}\n");
    ASSERT_EQ(result.diagnostics.size(), 1u);
    EXPECT_EQ(result.diagnostics[0].rule, Rule::kDetStdHash);
    EXPECT_EQ(result.diagnostics[0].line, 4);
  }
  const LintResult local = LintAt(
      "src/core/key.cpp",
      "unsigned long hash(int v) { return static_cast<unsigned long>(v) * 31; }\n"
      "unsigned long Key(int v) { return ::hash(v) + hash(v); }\n");
  EXPECT_TRUE(local.diagnostics.empty());
}

TEST(RulesTest, UnorderedIterationOutsideScopedDirsIsAllowed) {
  const LintResult result = LintAt(
      "src/faultsim/sweep.cpp",
      "#include <unordered_map>\n"
      "int Total(const std::unordered_map<int, int>& counts) {\n"
      "  int total = 0;\n"
      "  for (const auto& [k, v] : counts) total += v;\n"
      "  return total;\n"
      "}\n");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(RulesTest, PairedHeaderMembersAreHarvested) {
  const LexedFile header = Lex(
      "#pragma once\n"
      "#include <unordered_map>\n"
      "namespace astra::core {\n"
      "struct Coalescer { std::unordered_map<int, int> groups_; };\n"
      "}\n");
  const LexedFile source = Lex(
      "namespace astra::core {\n"
      "void Emit(Coalescer& c) {\n"
      "  for (const auto& [k, v] : c.groups_) { (void)k; (void)v; }\n"
      "}\n"
      "}\n");

  FileContext with_header;
  with_header.path = "core/coalescer.cpp";
  with_header.lexed = &source;
  with_header.paired_unordered_names = UnorderedContainerNames(
      CodeTokens(header));
  const std::vector<Diagnostic> flagged = RunRules(with_header);
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0].rule, Rule::kDetUnorderedIter);

  FileContext without_header = with_header;
  without_header.paired_unordered_names.clear();
  EXPECT_TRUE(RunRules(without_header).empty());
}

TEST(RulesTest, StringByValueFlaggedOnHotPaths) {
  const LintResult result = LintAt(
      "src/logs/labels.cpp",
      "#include <string>\n"
      "int Count(std::string label) { return static_cast<int>(label.size()); }\n");
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].rule, Rule::kPerfStringByValue);
}

TEST(RulesTest, StringByReferenceOrViewIsClean) {
  const LintResult result = LintAt(
      "src/core/labels.cpp",
      "#include <string>\n"
      "#include <string_view>\n"
      "int A(const std::string& s) { return static_cast<int>(s.size()); }\n"
      "int B(std::string_view s) { return static_cast<int>(s.size()); }\n"
      "int C(std::string&& s) { return static_cast<int>(s.size()); }\n"
      "std::string D() { return {}; }\n"
      "void E() { std::string local; (void)local; }\n");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(RulesTest, StringByValueOutsideHotPathsIsAllowed) {
  const LintResult result = LintAt(
      "src/tools/cli.cpp",
      "#include <string>\n"
      "int Count(std::string label) { return static_cast<int>(label.size()); }\n");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(RulesTest, SuppressionSilencesTheDiagnosedLine) {
  const LintResult result = LintAt(
      "src/core/jitter.cpp",
      "#include <cstdlib>\n"
      "// astra-lint: allow(det-random): exercising the suppression path\n"
      "int Jitter() { return std::rand(); }\n");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(RulesTest, ReportLinkedFilesInheritDeterminismScope) {
  const fs::path root = fs::path(ScratchPath("astra_lint_rules_test"));
  fs::remove_all(root);
  fs::create_directories(root / "src" / "core");
  fs::create_directories(root / "src" / "logs");

  const auto write = [](const fs::path& path, const std::string& text) {
    std::ofstream out(path);
    out << text;
  };
  write(root / "src" / "core" / "report.cpp",
        "#include \"logs/fmt.hpp\"\n"
        "namespace astra::core { void Render() {} }\n");
  // Reached from the report renderer: determinism scope applies.
  write(root / "src" / "logs" / "fmt.hpp",
        "#pragma once\n"
        "#include <unordered_map>\n"
        "namespace astra::logs {\n"
        "inline int Sum(const std::unordered_map<int, int>& m) {\n"
        "  int s = 0;\n"
        "  for (const auto& [k, v] : m) s += v;\n"
        "  return s;\n"
        "}\n"
        "}\n");
  // Same content, NOT included anywhere: out of scope.
  write(root / "src" / "logs" / "loose.hpp",
        "#pragma once\n"
        "#include <unordered_map>\n"
        "namespace astra::logs {\n"
        "inline int Sum(const std::unordered_map<int, int>& m) {\n"
        "  int s = 0;\n"
        "  for (const auto& [k, v] : m) s += v;\n"
        "  return s;\n"
        "}\n"
        "}\n");

  const LintResult result =
      LintTree({(root / "src").string()}, LintOptions{});
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].file, "logs/fmt.hpp");
  EXPECT_EQ(result.diagnostics[0].rule, Rule::kDetUnorderedIter);

  fs::remove_all(root);
}

TEST(EngineTest, NormalizeRepoPathStripsThroughLastSrcComponent) {
  EXPECT_EQ(NormalizeRepoPath("/root/repo/src/core/x.cpp"), "core/x.cpp");
  EXPECT_EQ(NormalizeRepoPath("./src/a/b.hpp"), "a/b.hpp");
  EXPECT_EQ(NormalizeRepoPath("core/x.cpp"), "core/x.cpp");
}

TEST(EngineTest, JsonOutputNamesTheRule) {
  const LintResult result = LintAt(
      "src/core/jitter.cpp",
      "#include <cstdlib>\n"
      "int Jitter() { return std::rand(); }\n");
  ASSERT_EQ(result.diagnostics.size(), 1u);
  std::ostringstream out;
  RenderJson(out, result);
  EXPECT_NE(out.str().find("\"rule\": \"det-random\""), std::string::npos);
  EXPECT_NE(out.str().find("\"files_scanned\": 1"), std::string::npos);
}

}  // namespace
}  // namespace astra::lint
