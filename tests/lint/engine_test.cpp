// Engine behaviour: SARIF rendering, and the seeded-mutation acceptance
// tests that prove each cross-file rule fires on REAL repo sources with a
// planted regression.
#include "lint/engine.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/diagnostics.hpp"

#ifndef ASTRA_LINT_SRC_DIR
#error "ASTRA_LINT_SRC_DIR must point at the repo's src/ directory"
#endif

namespace astra::lint {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void WriteFile(const fs::path& path, const std::string& text) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

// A scratch repo layout: <tmp>/src/... so NormalizeRepoPath scopes the
// copies exactly like the real tree.
class ScratchTree {
 public:
  ScratchTree() {
    root_ = fs::temp_directory_path() /
            fs::path("astra-lint-engine-" +
                     std::to_string(
                         ::testing::UnitTest::GetInstance()->random_seed()) +
                     "-" + std::string(
                         ::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
    fs::create_directories(root_ / "src");
  }
  ~ScratchTree() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  // Copy a real repo source into the scratch tree under the same
  // src-relative path.
  void CopyReal(const std::string& rel) {
    const fs::path from = fs::path(ASTRA_LINT_SRC_DIR) / rel;
    ASSERT_TRUE(fs::exists(from)) << from;
    WriteFile(SrcPath(rel), ReadFile(from));
  }

  [[nodiscard]] fs::path SrcPath(const std::string& rel) const {
    return root_ / "src" / rel;
  }
  [[nodiscard]] std::string SrcRoot() const {
    return (root_ / "src").string();
  }

 private:
  fs::path root_;
};

int CountRule(const LintResult& result, Rule rule, const std::string& file) {
  int count = 0;
  for (const Diagnostic& diagnostic : result.diagnostics) {
    if (diagnostic.rule == rule && diagnostic.file == file) ++count;
  }
  return count;
}

// --- SARIF --------------------------------------------------------------------

TEST(EngineTest, SarifCarriesSchemaRulesAndLocations) {
  ScratchTree tree;
  tree.CopyReal("util/thread_annotations.hpp");
  WriteFile(tree.SrcPath("serve/counter.cpp"),
            "#include <cstdint>\n"
            "#include <mutex>\n"
            "#include \"util/thread_annotations.hpp\"\n"
            "namespace astra::serve {\n"
            "class Counter {\n"
            " public:\n"
            "  std::uint64_t Peek() const { return hits_; }\n"
            " private:\n"
            "  mutable std::mutex mutex_;\n"
            "  std::uint64_t hits_ ASTRA_GUARDED_BY(mutex_) = 0;\n"
            "};\n"
            "}\n");
  const LintResult result = LintTree({tree.SrcRoot()}, LintOptions{});
  ASSERT_EQ(result.diagnostics.size(), 1u);

  std::ostringstream out;
  RenderSarif(out, result);
  const std::string sarif = std::move(out).str();
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"astra-lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"lock-guarded-field\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/serve/counter.cpp\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 7"), std::string::npos);
  // Every catalogue rule is described in the driver block.
  for (const RuleInfo& info : kRules) {
    EXPECT_NE(sarif.find("\"id\": \"" + std::string(info.id) + "\""),
              std::string::npos)
        << info.id;
  }
}

// --- seeded-mutation acceptance tests -----------------------------------------
// Each plants the regression the rule exists to catch into a copy of the
// REAL source and asserts the tree goes red.

TEST(EngineMutationTest, WebhookDeliveryMovedInsideLockGoesRed) {
  ScratchTree tree;
  tree.CopyReal("util/thread_annotations.hpp");
  tree.CopyReal("util/retry.hpp");
  tree.CopyReal("serve/alert_hub.hpp");
  tree.CopyReal("serve/alert_hub.cpp");

  // The copied tree is clean as-is.
  EXPECT_TRUE(LintTree({tree.SrcRoot()}, LintOptions{}).diagnostics.empty());

  // Mutation: hoist the webhook delivery INTO the ring-lock block — the
  // exact regression the ASTRA_EXCLUDES annotation exists to catch.
  std::string source = ReadFile(tree.SrcPath("serve/alert_hub.cpp"));
  const std::string original =
      "  }\n"
      "  DeliverWebhooks(entries);\n";
  const std::string mutated =
      "    DeliverWebhooks(entries);\n"
      "  }\n";
  const std::size_t at = source.find(original);
  ASSERT_NE(at, std::string::npos)
      << "Retain() no longer matches the seeded-mutation pattern — update "
         "this test alongside serve/alert_hub.cpp";
  source.replace(at, original.size(), mutated);
  WriteFile(tree.SrcPath("serve/alert_hub.cpp"), source);

  const LintResult result = LintTree({tree.SrcRoot()}, LintOptions{});
  EXPECT_GE(CountRule(result, Rule::kLockBlockingCall, "serve/alert_hub.cpp"),
            1);
}

TEST(EngineMutationTest, GuardedFieldTouchedUnlockedGoesRed) {
  ScratchTree tree;
  tree.CopyReal("util/thread_annotations.hpp");
  tree.CopyReal("util/retry.hpp");
  tree.CopyReal("serve/alert_hub.hpp");
  tree.CopyReal("serve/alert_hub.cpp");

  // Mutation: a lock-free accessor reading the guarded drop counter (the
  // annotation rides in from the paired header's facts).
  std::string source = ReadFile(tree.SrcPath("serve/alert_hub.cpp"));
  source +=
      "\nnamespace astra::serve {\n"
      "std::uint64_t AlertHub::DroppedUnsafe() const { return dropped_; }\n"
      "}\n";
  WriteFile(tree.SrcPath("serve/alert_hub.cpp"), source);

  const LintResult result = LintTree({tree.SrcRoot()}, LintOptions{});
  EXPECT_GE(CountRule(result, Rule::kLockGuardedField,
                      "serve/alert_hub.cpp"),
            1);
}

TEST(EngineMutationTest, ServeIncludeAddedToCoreGoesRed) {
  ScratchTree tree;
  tree.CopyReal("core/report.hpp");

  std::string source = ReadFile(tree.SrcPath("core/report.hpp"));
  const std::size_t pragma = source.find("#pragma once");
  ASSERT_NE(pragma, std::string::npos);
  source.insert(source.find('\n', pragma) + 1,
                "#include \"serve/daemon.hpp\"\n");
  WriteFile(tree.SrcPath("core/report.hpp"), source);

  const LintResult result = LintTree({tree.SrcRoot()}, LintOptions{});
  EXPECT_EQ(CountRule(result, Rule::kArchUpwardInclude, "core/report.hpp"),
            1);
}

}  // namespace
}  // namespace astra::lint
