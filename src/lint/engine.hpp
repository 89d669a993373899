// astra-lint engine: file discovery, the one-pass analysis, the global
// (cross-TU) rules, and text/JSON/SARIF rendering.
//
// Every sweep is one serial pass in three steps:
//
//   1  read and lex each file once, apply its `astra-lint-test: path=`
//      override, parse its suppressions and harvest its facts (quoted
//      includes, lock annotations, lock acquisition edges, unordered
//      container names).
//   2  from the facts alone: the include graph (report-linked scope), the
//      tree-wide ASTRA_BLOCKING / ASTRA_EXCLUDES maps, and the global rules
//      -- arch-upward-include over the layer matrix and lock-order cycle
//      detection over the union of every file's acquisition edges.
//   3  the per-file rules over each file's tokens, a .cpp seeing its paired
//      header's facts, then that file's suppressions.
//
// Diagnostics sort by (file, line, rule), so the output depends only on the
// files' bytes and the options.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "lint/diagnostics.hpp"

namespace astra::lint {

struct LintOptions {
  // Honor `astra-lint-test: path=...` overrides (the golden corpus relies
  // on them; they are inert on the real tree, which never contains one).
  bool honor_test_overrides = true;
  // Layer-matrix conf for arch-upward-include; empty = the compiled-in
  // DefaultLayerMatrix().  An unreadable/invalid file is an io_error and
  // the compiled matrix is used.
  std::string layers_path;
};

struct LintResult {
  std::vector<Diagnostic> diagnostics;  // sorted by (file, line, rule)
  std::size_t files_scanned = 0;
  std::vector<std::string> io_errors;   // unreadable files / bad roots
};

// Lint every *.hpp / *.cpp under the given roots (files may also be named
// directly).  Paths are normalized to be src-relative for rule scoping; a
// file reached through two roots or spellings is linted once.
[[nodiscard]] LintResult LintTree(const std::vector<std::string>& roots,
                                  const LintOptions& options = {});

// Lint one in-memory source — the unit-test entry point.  `path` plays the
// role of the repo-relative path unless the source carries a test override.
// Runs the full rule set including the global rules (the lock-order graph
// and include checks see just this one file).
[[nodiscard]] LintResult LintSource(const std::string& path,
                                    std::string_view source,
                                    const LintOptions& options = {});

// Strip everything up to and including the last `src/` component, yielding
// the rule-scoping path ("core/report.cpp").  Paths without a src/
// component are returned unchanged (minus any leading "./").
[[nodiscard]] std::string NormalizeRepoPath(std::string_view path);

void RenderText(std::ostream& out, const LintResult& result);
void RenderJson(std::ostream& out, const LintResult& result);
// SARIF 2.1.0 with one run; file URIs are prefixed "src/" so GitHub code
// scanning anchors them at the repo root.
void RenderSarif(std::ostream& out, const LintResult& result);

}  // namespace astra::lint
