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
// Exit codes: 0 clean, 1 diagnostics found, 2 usage or I/O error.
#include <iostream>
#include <string>
#include <vector>

#include "lint/engine.hpp"

namespace {

void PrintUsage(std::ostream& out) {
  out << "usage: astra_lint [--json | --sarif] [--layers=FILE] [--list-rules]\n"
         "                  [--no-test-overrides] PATH...\n";
}

void PrintRules(std::ostream& out) {
  for (const astra::lint::RuleInfo& info : astra::lint::kRules) {
    out << "  " << info.id << "\n      " << info.summary << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool sarif = false;
  astra::lint::LintOptions options;
  std::vector<std::string> roots;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--sarif") {
      sarif = true;
    } else if (arg.substr(0, 9) == "--layers=") {
      options.layers_path = std::string(arg.substr(9));
    } else if (arg == "--list-rules") {
      PrintRules(std::cout);
      return 0;
    } else if (arg == "--no-test-overrides") {
      options.honor_test_overrides = false;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      PrintRules(std::cout);
      return 0;
    } else if (arg.substr(0, 2) == "--") {
      std::cerr << "astra_lint: unknown flag " << arg << '\n';
      PrintUsage(std::cerr);
      return 2;
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty()) {
    PrintUsage(std::cerr);
    return 2;
  }
  if (json && sarif) {
    std::cerr << "astra_lint: --json and --sarif are mutually exclusive\n";
    return 2;
  }

  const astra::lint::LintResult result = astra::lint::LintTree(roots, options);
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
