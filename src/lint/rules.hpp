// Rule implementations for astra-lint.
//
// All rules run over the lexed token stream of one file (comments and
// string literals are separate token kinds, so a banned name inside either
// can never fire).  Path scoping uses the repo-relative path; the corpus
// overrides it via `astra-lint-test: path=...` so golden violation files
// can exercise path-scoped rules from tests/lint/corpus/.
//
// Cross-file inputs (the paired header's container/annotation facts, the
// tree-wide ASTRA_BLOCKING / ASTRA_EXCLUDES maps) arrive pre-digested in
// FileContext rather than as token streams: the engine harvests them once
// per file, right after that file's single lex.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/diagnostics.hpp"
#include "lint/lexer.hpp"

namespace astra::lint {

struct FileContext {
  // Repo-relative path with '/' separators, rooted at src/ when the file
  // lives under it (e.g. "core/report.cpp", "stream/monitor.hpp").
  std::string path;
  const LexedFile* lexed = nullptr;
  // True when the include graph reaches this file from core/report.* —
  // report-rendering scope for the determinism rules.
  bool report_linked = false;
  // For foo.cpp, facts from the lexed foo.hpp next to it: unordered
  // container members are declared in the header but iterated in the .cpp,
  // and ASTRA_GUARDED_BY annotations live on the header's field
  // declarations.
  std::vector<std::string> paired_unordered_names;
  std::map<std::string, std::string> paired_guarded;  // field -> mutex key
  // Tree-wide annotation maps (union over every scanned file); null means
  // "none known".  Owned by the engine.
  const std::set<std::string>* global_blocking = nullptr;
  const std::map<std::string, std::set<std::string>>* global_excludes = nullptr;
};

// Run every rule over one file.  Suppressions are NOT applied here; the
// engine filters afterwards so it can also flag malformed allow() comments.
[[nodiscard]] std::vector<Diagnostic> RunRules(const FileContext& context);

// Names of variables/members declared with an unordered container type in
// `code` — exported so the engine can store a header's names as facts for
// its paired .cpp instead of keeping header tokens alive.
[[nodiscard]] std::vector<std::string> UnorderedContainerNames(
    const std::vector<const Token*>& code);

}  // namespace astra::lint
