// astra-lint: repo-invariant static analysis for the Astra MRT tree.
//
//   astra_lint [--json | --sarif] [--layers=FILE] [--list-rules]
//              [--no-test-overrides] PATH...
//
// Lints every *.hpp / *.cpp under each PATH (directories recurse; files are
// taken as-is) against the repo's rule families: determinism (no wall
// clocks or libc randomness, no hash-order iteration in report paths, no
// pointer-keyed ordered containers), serialization (checkpoint bytes go
// through util/binio), error handling (no bare catch (...), no exit()
// outside tools/, no discarded ingest/checkpoint statuses), header hygiene
// (#pragma once, no header-scope using namespace), lock discipline
// (ASTRA_GUARDED_BY / ASTRA_REQUIRES / ASTRA_EXCLUDES / ASTRA_BLOCKING
// annotations, cross-TU lock-order cycles), and layering (the committed
// src/lint/layers.conf matrix over the include graph).
//
// Every run is one serial pass that lexes each file once; the output
// depends only on the files' bytes and the flags.
//
// Violations are suppressible in-source with a mandatory justification via
// an allow(<rule>) comment; see DESIGN.md "Static analysis" for the syntax.
//
// The flags are declared once, in main's table; `--help` prints the usage
// generated from it, with the rule catalogue below.
//
// Exit codes: 0 clean, 1 diagnostics found, 2 usage or I/O error.
#include <iostream>
#include <sstream>
#include <string>

#include "lint/engine.hpp"
#include "util/flags.hpp"

namespace {

std::string RulesText() {
  std::ostringstream text;
  for (const astra::lint::RuleInfo& info : astra::lint::kRules) {
    text << "  " << info.id << "\n      " << info.summary << '\n';
  }
  return text.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool sarif = false;
  bool list_rules = false;
  astra::lint::LintOptions options;
  astra::flags::Spec spec{.program = "astra_lint"};
  spec.commands = {{"", "PATH..."}};
  spec.epilogue = RulesText();
  spec.flags = {
      {"--json", &json},
      {"--sarif", &sarif},
      {"--layers", "FILE", &options.layers_path},
      {"--list-rules", &list_rules},
      {"--no-test-overrides", &options.honor_test_overrides, false},
  };
  const astra::flags::Parsed parsed = astra::flags::Parse(spec, argc, argv);
  if (const auto code = astra::flags::Reply(spec, parsed, 2)) return *code;
  if (list_rules) {
    std::cout << RulesText();
    return 0;
  }
  if (parsed.positionals.empty()) {
    std::cerr << "astra_lint: no PATH to lint (see `astra_lint --help`)\n";
    return 2;
  }
  if (json && sarif) {
    std::cerr << "astra_lint: --json and --sarif are mutually exclusive\n";
    return 2;
  }

  const astra::lint::LintResult result =
      astra::lint::LintTree(parsed.positionals, options);
  if (json) {
    astra::lint::RenderJson(std::cout, result);
  } else if (sarif) {
    astra::lint::RenderSarif(std::cout, result);
  } else {
    astra::lint::RenderText(std::cout, result);
  }
  if (!result.io_errors.empty() || result.files_scanned == 0) return 2;
  return result.diagnostics.empty() ? 0 : 1;
}
