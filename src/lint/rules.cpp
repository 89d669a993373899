#include "lint/rules.hpp"

#include <algorithm>
#include <set>
#include <string_view>

#include "lint/lock_regions.hpp"

namespace astra::lint {
namespace {

bool StartsWith(std::string_view s, std::string_view prefix) noexcept {
  return s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool IsHeader(std::string_view path) noexcept { return EndsWith(path, ".hpp"); }

bool IsIdent(const Token* token, std::string_view text) noexcept {
  return token->kind == TokKind::kIdentifier && token->text == text;
}

bool IsPunct(const Token* token, std::string_view text) noexcept {
  return token->kind == TokKind::kPunct && token->text == text;
}

const Token* At(const std::vector<const Token*>& code, std::size_t i) noexcept {
  static const Token kNull{TokKind::kPunct, "", 0, 0};
  return i < code.size() ? code[i] : &kNull;
}

void Add(std::vector<Diagnostic>& out, const FileContext& context, int line,
         Rule rule, std::string message) {
  Diagnostic diagnostic;
  diagnostic.file = context.path;
  diagnostic.line = line;
  diagnostic.rule = rule;
  diagnostic.message = std::move(message);
  out.push_back(std::move(diagnostic));
}

// --- det-random ---------------------------------------------------------------

void CheckDetRandom(const FileContext& context,
                    const std::vector<const Token*>& code,
                    std::vector<Diagnostic>& out) {
  // The simulation clock is the one sanctioned wall-clock boundary.
  if (StartsWith(context.path, "util/sim_time")) return;
  // stream/ may read wall clocks to pace tail-follow polling; everything it
  // feeds into analysis still goes through SimTime.
  const bool polling_whitelisted = StartsWith(context.path, "stream/");

  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token* token = code[i];
    if (token->kind != TokKind::kIdentifier) continue;
    const Token* prev = i > 0 ? code[i - 1] : nullptr;
    const bool member = prev != nullptr && (IsPunct(prev, ".") || IsPunct(prev, "->"));

    if ((token->text == "rand" || token->text == "srand") && !member &&
        IsPunct(At(code, i + 1), "(")) {
      Add(out, context, token->line, Rule::kDetRandom,
          "call to " + token->text +
              "() — use util/rng (seeded, fork-able) so runs stay reproducible");
      continue;
    }
    if (token->text == "random_device" && !member) {
      Add(out, context, token->line, Rule::kDetRandom,
          "std::random_device is nondeterministic — seed util/rng explicitly");
      continue;
    }
    if (polling_whitelisted) continue;
    if (token->text == "time" && !member && IsPunct(At(code, i + 1), "(")) {
      const Token* arg = At(code, i + 2);
      const bool null_arg = IsIdent(arg, "nullptr") || IsIdent(arg, "NULL") ||
                            (arg->kind == TokKind::kNumber && arg->text == "0");
      if (null_arg && IsPunct(At(code, i + 3), ")")) {
        Add(out, context, token->line, Rule::kDetRandom,
            "time(" + arg->text +
                ") reads the wall clock — analysis time must come from "
                "util/sim_time");
      }
      continue;
    }
    if (token->text == "system_clock" && IsPunct(At(code, i + 1), "::") &&
        IsIdent(At(code, i + 2), "now")) {
      Add(out, context, token->line, Rule::kDetRandom,
          "system_clock::now() reads the wall clock — analysis time must come "
          "from util/sim_time");
    }
  }
}

// --- det-unordered-iter -------------------------------------------------------

constexpr std::string_view kUnorderedContainers[] = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};

bool IsUnorderedContainerName(std::string_view text) noexcept {
  return std::find(std::begin(kUnorderedContainers), std::end(kUnorderedContainers),
                   text) != std::end(kUnorderedContainers);
}

// Names of variables/members declared with an unordered container type:
// `std::unordered_map<K, V> name`, reference/pointer parameters, and
// comma-chained declarators (`per_dimm, per_node;`).
void HarvestUnorderedNames(const std::vector<const Token*>& code,
                           std::set<std::string>& names) {
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (!IsUnorderedContainerName(code[i]->text) ||
        code[i]->kind != TokKind::kIdentifier) {
      continue;
    }
    std::size_t j = i + 1;
    if (!IsPunct(At(code, j), "<")) continue;
    int depth = 0;
    for (; j < code.size(); ++j) {
      if (IsPunct(code[j], "<")) ++depth;
      if (IsPunct(code[j], ">") && --depth == 0) break;
      if (IsPunct(code[j], ";")) break;  // malformed; bail
    }
    if (depth != 0) continue;
    ++j;  // past '>'
    // Declarator chain: [const|&|*]* name [, name]* terminator.
    while (j < code.size()) {
      while (IsPunct(At(code, j), "&") || IsPunct(At(code, j), "*") ||
             IsIdent(At(code, j), "const")) {
        ++j;
      }
      const Token* name = At(code, j);
      if (name->kind != TokKind::kIdentifier) break;
      const Token* after = At(code, j + 1);
      if (IsPunct(after, ",") || IsPunct(after, ";") || IsPunct(after, "=") ||
          IsPunct(after, ")") || IsPunct(after, "{")) {
        names.insert(name->text);
        if (!IsPunct(after, ",")) break;
        j += 2;
        continue;
      }
      break;
    }
  }
}

// True when tokens [begin, end) form a pure object chain — identifiers
// joined by `.`, `->`, `::` — e.g. `state.ce_smallest`.  Returns the
// final identifier through `last`.
bool IsObjectChain(const std::vector<const Token*>& code, std::size_t begin,
                   std::size_t end, std::string& last) {
  bool expect_ident = true;
  last.clear();
  for (std::size_t i = begin; i < end; ++i) {
    const Token* token = code[i];
    if (expect_ident) {
      if (token->kind != TokKind::kIdentifier) return false;
      last = token->text;
    } else if (!IsPunct(token, ".") && !IsPunct(token, "->") &&
               !IsPunct(token, "::")) {
      return false;
    }
    expect_ident = !expect_ident;
  }
  return !expect_ident && !last.empty();
}

void CheckDetUnorderedIter(const FileContext& context,
                           const std::vector<const Token*>& code,
                           std::vector<Diagnostic>& out) {
  const bool in_scope = StartsWith(context.path, "core/") ||
                        StartsWith(context.path, "stream/") || context.report_linked;
  if (!in_scope) return;

  std::set<std::string> names;
  HarvestUnorderedNames(code, names);
  names.insert(context.paired_unordered_names.begin(),
               context.paired_unordered_names.end());
  if (names.empty()) return;

  for (std::size_t i = 0; i < code.size(); ++i) {
    // Range-for: `for ( ... : chain )` with the chain ending in a harvested
    // name.
    if (IsIdent(code[i], "for") && IsPunct(At(code, i + 1), "(")) {
      int depth = 0;
      std::size_t close = i + 1;
      std::size_t colon = 0;
      for (; close < code.size(); ++close) {
        if (IsPunct(code[close], "(")) ++depth;
        if (IsPunct(code[close], ")") && --depth == 0) break;
        if (depth == 1 && colon == 0 && IsPunct(code[close], ":")) colon = close;
      }
      if (close >= code.size() || colon == 0) continue;
      std::string last;
      if (IsObjectChain(code, colon + 1, close, last) && names.count(last) > 0) {
        Add(out, context, code[i]->line, Rule::kDetUnorderedIter,
            "range-for over unordered container '" + last +
                "' — hash order is not deterministic across builds; iterate "
                "sorted keys, or justify with astra-lint: allow(...)");
      }
      continue;
    }
    // Iterator form: `name.begin()` / `name.cbegin()`.
    if (code[i]->kind == TokKind::kIdentifier && names.count(code[i]->text) > 0 &&
        (IsPunct(At(code, i + 1), ".") || IsPunct(At(code, i + 1), "->")) &&
        (IsIdent(At(code, i + 2), "begin") || IsIdent(At(code, i + 2), "cbegin")) &&
        IsPunct(At(code, i + 3), "(")) {
      Add(out, context, code[i]->line, Rule::kDetUnorderedIter,
          "iterator over unordered container '" + code[i]->text +
              "' — hash order is not deterministic across builds");
    }
  }
}

// --- det-pointer-key ----------------------------------------------------------

void CheckDetPointerKey(const FileContext& context,
                        const std::vector<const Token*>& code,
                        std::vector<Diagnostic>& out) {
  constexpr std::string_view kOrdered[] = {"map", "set", "multimap", "multiset"};
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if (code[i]->kind != TokKind::kIdentifier ||
        std::find(std::begin(kOrdered), std::end(kOrdered), code[i]->text) ==
            std::end(kOrdered)) {
      continue;
    }
    // Require std:: qualification so locally-named maps don't trip it.
    if (i < 2 || !IsPunct(code[i - 1], "::") || !IsIdent(code[i - 2], "std")) {
      continue;
    }
    if (!IsPunct(At(code, i + 1), "<")) continue;
    // First template argument: up to a top-level ',' or the closing '>'.
    int depth = 1;
    std::size_t j = i + 2;
    const Token* last_meaningful = nullptr;
    for (; j < code.size() && depth > 0; ++j) {
      const Token* token = code[j];
      if (IsPunct(token, "<") || IsPunct(token, "(")) ++depth;
      if (IsPunct(token, ">") || IsPunct(token, ")")) --depth;
      if (depth == 0) break;
      if (depth == 1 && IsPunct(token, ",")) break;
      last_meaningful = token;
    }
    if (last_meaningful != nullptr && IsPunct(last_meaningful, "*")) {
      Add(out, context, code[i]->line, Rule::kDetPointerKey,
          "std::" + code[i]->text +
              " keyed by a raw pointer orders by address (ASLR-dependent) — "
              "key by a stable id instead");
    }
  }
}

// --- det-std-hash -------------------------------------------------------------

void CheckDetStdHash(const FileContext& context,
                     const std::vector<const Token*>& code,
                     std::vector<Diagnostic>& out) {
  for (std::size_t i = 2; i < code.size(); ++i) {
    if (IsIdent(code[i], "hash") && IsPunct(code[i - 1], "::") &&
        IsIdent(code[i - 2], "std")) {
      Add(out, context, code[i]->line, Rule::kDetStdHash,
          "the standard library's hash<> values differ across libraries and "
          "builds — they must never reach a report or a checkpoint; mix the "
          "fields with a fixed function (util/rng MixSeed)");
    }
  }
}

// --- ser-raw-bytes ------------------------------------------------------------

void CheckSerRawBytes(const FileContext& context,
                      const std::vector<const Token*>& code,
                      std::vector<Diagnostic>& out) {
  const bool in_scope =
      StartsWith(context.path, "stream/") || StartsWith(context.path, "util/binio");
  if (!in_scope) return;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token* token = code[i];
    if (token->kind != TokKind::kIdentifier) continue;
    if (token->text == "reinterpret_cast") {
      Add(out, context, token->line, Rule::kSerRawBytes,
          "reinterpret_cast in a checkpoint path — encode through util/binio "
          "(bounded, endian-stable) instead of reinterpreting struct bytes");
      continue;
    }
    if ((token->text == "memcpy" || token->text == "fwrite") &&
        IsPunct(At(code, i + 1), "(")) {
      Add(out, context, token->line, Rule::kSerRawBytes,
          token->text +
              "() of raw bytes in a checkpoint path — use util/binio "
              "readers/writers so layout and endianness stay explicit");
    }
  }
}

// --- err-catch-all ------------------------------------------------------------

void CheckErrCatchAll(const FileContext& context,
                      const std::vector<const Token*>& code,
                      std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i + 3 < code.size(); ++i) {
    if (IsIdent(code[i], "catch") && IsPunct(code[i + 1], "(") &&
        IsPunct(code[i + 2], "...") && IsPunct(code[i + 3], ")")) {
      Add(out, context, code[i]->line, Rule::kErrCatchAll,
          "bare catch (...) swallows every failure including logic errors — "
          "catch the specific exception or let it propagate");
    }
  }
}

// --- err-exit -----------------------------------------------------------------

void CheckErrExit(const FileContext& context,
                  const std::vector<const Token*>& code,
                  std::vector<Diagnostic>& out) {
  if (StartsWith(context.path, "tools/")) return;  // mains own the process
  constexpr std::string_view kKillers[] = {"exit", "abort", "_Exit", "quick_exit"};
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token* token = code[i];
    if (token->kind != TokKind::kIdentifier ||
        std::find(std::begin(kKillers), std::end(kKillers), token->text) ==
            std::end(kKillers)) {
      continue;
    }
    if (!IsPunct(At(code, i + 1), "(")) continue;
    const Token* prev = i > 0 ? code[i - 1] : nullptr;
    // Member calls (`status.exit()`) and declarations (`void exit(int)`) are
    // not process kills.
    if (prev != nullptr &&
        (IsPunct(prev, ".") || IsPunct(prev, "->") ||
         prev->kind == TokKind::kIdentifier)) {
      continue;
    }
    Add(out, context, token->line, Rule::kErrExit,
        token->text +
            "() terminates the embedding process — library code must return "
            "a status and let src/tools/ decide the exit code");
  }
}

// --- err-ignored-status -------------------------------------------------------

// Ingest/checkpoint APIs whose return value IS the error channel.  They are
// all marked [[nodiscard]] in their headers; this rule keeps the guarantee
// visible to code built without warnings-as-errors.
constexpr std::string_view kStatusApis[] = {
    "IngestAllRecords", "ReadLines", "ReadFileBytes", "WriteFileBytes",
    "LoadState",       "SaveMonitorCheckpoint", "RestoreMonitorCheckpoint",
    "WriteCheckpointFile", "ReadCheckpointFile", "DecodeCanonical",
    "CorruptFile",     "CorruptDirectory",
    // Engine contract (core/engine.hpp): a discarded Restore is a silently
    // half-empty engine and a discarded MergeFrom is a silently dropped
    // shard.  LoadState above stays for the TailReader cursor.
    "Restore",         "MergeFrom",
    // Io seam (util/io_faults.hpp) and retry layer (util/retry.hpp): these
    // statuses ARE the fault-injection surface — discarding one turns an
    // injected failure into silent data loss, defeating the chaos suite.
    "ReadFile",        "MapFile",               "WriteFile",
    "Rename",          "SyncFile",              "SyncDir",
    "FileSize",        "Remove",                "RetryWithBackoff",
    "RemoveStaleCheckpointTmp"};

void CheckErrIgnoredStatus(const FileContext& context,
                           const std::vector<const Token*>& code,
                           std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token* token = code[i];
    if (token->kind != TokKind::kIdentifier ||
        std::find(std::begin(kStatusApis), std::end(kStatusApis), token->text) ==
            std::end(kStatusApis)) {
      continue;
    }
    if (!IsPunct(At(code, i + 1), "(")) continue;
    // The call's matching ')' must be followed directly by ';' — i.e. the
    // whole statement is the call and nothing consumes the result.
    int depth = 0;
    std::size_t close = i + 1;
    for (; close < code.size(); ++close) {
      if (IsPunct(code[close], "(")) ++depth;
      if (IsPunct(code[close], ")") && --depth == 0) break;
    }
    if (close >= code.size() || !IsPunct(At(code, close + 1), ";")) continue;
    // Walk back over the object chain (`reader.`, `logs::`, and calls in the
    // chain like `io::Current().`) to the start of the statement.
    std::size_t start = i;
    while (start >= 2 &&
           (IsPunct(code[start - 1], ".") || IsPunct(code[start - 1], "->") ||
            IsPunct(code[start - 1], "::"))) {
      if (code[start - 2]->kind == TokKind::kIdentifier) {
        start -= 2;
        continue;
      }
      if (IsPunct(code[start - 2], ")")) {
        // Step over one chained call's argument list to the callee name.
        int chain_depth = 0;
        std::size_t open = start - 2;
        while (open > 0) {
          if (IsPunct(code[open], ")")) ++chain_depth;
          if (IsPunct(code[open], "(") && --chain_depth == 0) break;
          --open;
        }
        if (chain_depth != 0 || open == 0 ||
            code[open - 1]->kind != TokKind::kIdentifier) {
          break;
        }
        start = open - 1;
        continue;
      }
      break;
    }
    const Token* before = start > 0 ? code[start - 1] : nullptr;
    const bool statement_start =
        before == nullptr || IsPunct(before, ";") || IsPunct(before, "{") ||
        IsPunct(before, "}") || IsPunct(before, ")") || IsIdent(before, "else") ||
        IsIdent(before, "do") || IsPunct(before, ":");
    if (!statement_start) continue;
    // `(void) Foo();` is an explicit, visible discard; honor it.
    if (before != nullptr && IsPunct(before, ")") && start >= 3 &&
        IsIdent(code[start - 2], "void") && IsPunct(code[start - 3], "(")) {
      continue;
    }
    Add(out, context, token->line, Rule::kErrIgnoredStatus,
        "status result of " + token->text +
            "() discarded — check it (these APIs report torn files, short "
            "writes, and rejected checkpoints through their return value)");
  }
}

// --- perf-string-by-value -----------------------------------------------------

void CheckPerfStringByValue(const FileContext& context,
                            const std::vector<const Token*>& code,
                            std::vector<Diagnostic>& out) {
  // Hot-path scope: the parse layer and the analysis engines, where these
  // signatures sit on per-record or per-line paths.  Tools, tests and the
  // report renderer are allowed to copy.
  const bool in_scope =
      StartsWith(context.path, "logs/") || StartsWith(context.path, "core/");
  if (!in_scope) return;

  for (std::size_t i = 0; i + 2 < code.size(); ++i) {
    // Match `std :: string` opening a parameter: the token before the type
    // (skipping one optional `const`) must be '(' or ','.
    if (!IsIdent(code[i], "std") || !IsPunct(At(code, i + 1), "::") ||
        !IsIdent(At(code, i + 2), "string")) {
      continue;
    }
    std::size_t before = i;
    if (before > 0 && IsIdent(code[before - 1], "const")) --before;
    const Token* opener = before > 0 ? code[before - 1] : nullptr;
    if (opener == nullptr || (!IsPunct(opener, "(") && !IsPunct(opener, ","))) {
      continue;
    }
    // By value means the parameter name follows the type directly — any
    // `&`, `&&` or `*` in between makes it a reference/pointer, and a
    // following '<' would make the type std::string's template cousin.
    const Token* name = At(code, i + 3);
    if (name->kind != TokKind::kIdentifier) continue;
    const Token* after = At(code, i + 4);
    if (!IsPunct(after, ",") && !IsPunct(after, ")") && !IsPunct(after, "=")) {
      continue;
    }
    Add(out, context, code[i]->line, Rule::kPerfStringByValue,
        "parameter '" + name->text +
            "' takes std::string by value — every call on this hot path "
            "copies the buffer; take std::string_view (non-owning) or const "
            "std::string& (owning callers)");
  }
}

// --- lock-guarded-field -------------------------------------------------------

void CheckLockGuardedField(const FileContext& context,
                           const std::vector<const Token*>& code,
                           const LockScan& scan,
                           const LockAnnotations& annotations,
                           std::vector<Diagnostic>& out) {
  // Own annotations win over the paired header's on a name collision.
  std::map<std::string, std::string> guarded = context.paired_guarded;
  for (const auto& [field, mutex] : annotations.guarded) guarded[field] = mutex;
  if (guarded.empty()) return;

  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token* token = code[i];
    if (token->kind != TokKind::kIdentifier) continue;
    const auto it = guarded.find(token->text);
    if (it == guarded.end()) continue;
    // The declaration site itself: `Type name_ ASTRA_GUARDED_BY(mu) ...`.
    if (IsIdent(At(code, i + 1), "ASTRA_GUARDED_BY")) continue;
    if (InRegionOf(scan, i, it->second)) continue;
    Add(out, context, token->line, Rule::kLockGuardedField,
        "'" + token->text + "' is guarded by '" + it->second +
            "' but accessed outside any lock region of it — take the lock, "
            "or mark the enclosing function ASTRA_REQUIRES(" + it->second +
            ")");
  }
}

// --- lock-blocking-call -------------------------------------------------------

// Joined `a, b` list for diagnostics.
std::string JoinKeys(const std::vector<std::string>& keys) {
  std::string joined;
  for (const std::string& key : keys) {
    if (!joined.empty()) joined += ", ";
    joined += key;
  }
  return joined;
}

void CheckLockBlockingCall(const FileContext& context,
                           const std::vector<const Token*>& code,
                           const LockScan& scan,
                           const LockAnnotations& annotations,
                           std::vector<Diagnostic>& out) {
  // Local annotations also count: a file can mark its own helpers.
  std::set<std::string> blocking = annotations.blocking;
  if (context.global_blocking != nullptr) {
    blocking.insert(context.global_blocking->begin(),
                    context.global_blocking->end());
  }
  std::map<std::string, std::set<std::string>> excludes = annotations.excludes;
  if (context.global_excludes != nullptr) {
    for (const auto& [fn, keys] : *context.global_excludes) {
      excludes[fn].insert(keys.begin(), keys.end());
    }
  }

  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token* token = code[i];
    if (token->kind != TokKind::kIdentifier || !IsPunct(At(code, i + 1), "(")) {
      continue;
    }
    const Token* prev = i > 0 ? code[i - 1] : nullptr;
    const bool member =
        prev != nullptr && (IsPunct(prev, ".") || IsPunct(prev, "->"));

    // Built-in list: sleeping under a lock is always wrong.  Member access
    // is excluded so `cv.wait_for(...)` (which RELEASES the lock) is fine
    // while `std::this_thread::sleep_for(...)` fires.
    const bool builtin_sleep =
        (token->text == "sleep_for" || token->text == "sleep_until") && !member;

    if (builtin_sleep || blocking.count(token->text) > 0) {
      const std::vector<std::string> open = OpenMutexesAt(scan, i);
      if (open.empty()) continue;
      Add(out, context, token->line, Rule::kLockBlockingCall,
          "call to " + token->text + "() while holding '" + JoinKeys(open) +
              "' — " +
              (builtin_sleep
                   ? std::string("sleeping under a lock stalls every waiter")
                   : "it is marked ASTRA_BLOCKING and can block indefinitely; "
                     "move it outside the lock region"));
      continue;
    }
    const auto excluded = excludes.find(token->text);
    if (excluded == excludes.end()) continue;
    std::vector<std::string> violated;
    for (const std::string& key : excluded->second) {
      if (InRegionOf(scan, i, key)) violated.push_back(key);
    }
    if (violated.empty()) continue;
    Add(out, context, token->line, Rule::kLockBlockingCall,
        "call to " + token->text + "() while holding '" + JoinKeys(violated) +
            "' — it is marked ASTRA_EXCLUDES(" + JoinKeys(violated) +
            ") and must not run under that lock");
  }
}

// --- header hygiene -----------------------------------------------------------

void CheckHeaderHygiene(const FileContext& context,
                        const std::vector<const Token*>& code,
                        std::vector<Diagnostic>& out) {
  if (!IsHeader(context.path)) return;

  bool has_pragma_once = false;
  for (const Directive& directive : context.lexed->directives) {
    if (directive.name == "pragma" && directive.argument == "once") {
      has_pragma_once = true;
      break;
    }
  }
  if (!has_pragma_once) {
    Add(out, context, 1, Rule::kHdrPragmaOnce,
        "header has no #pragma once — double inclusion breaks the build in "
        "surprising translation units");
  }

  // `using namespace` at header scope: flag when every enclosing brace is a
  // namespace brace (function/class bodies inside headers are local scope).
  std::vector<bool> brace_is_namespace;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token* token = code[i];
    if (IsPunct(token, "{")) {
      // Look back across `namespace [name[::name]]` to classify the brace.
      std::size_t back = i;
      while (back >= 1 && (code[back - 1]->kind == TokKind::kIdentifier ||
                           IsPunct(code[back - 1], "::"))) {
        --back;
        if (IsIdent(code[back], "namespace")) break;
      }
      brace_is_namespace.push_back(back < i && IsIdent(code[back], "namespace"));
      continue;
    }
    if (IsPunct(token, "}")) {
      if (!brace_is_namespace.empty()) brace_is_namespace.pop_back();
      continue;
    }
    if (IsIdent(token, "using") && IsIdent(At(code, i + 1), "namespace")) {
      const bool header_scope =
          std::all_of(brace_is_namespace.begin(), brace_is_namespace.end(),
                      [](bool is_namespace) { return is_namespace; });
      if (header_scope) {
        Add(out, context, token->line, Rule::kHdrUsingNamespace,
            "using namespace at header scope leaks the whole namespace into "
            "every includer — qualify names instead");
      }
    }
  }
}

}  // namespace

std::vector<std::string> UnorderedContainerNames(
    const std::vector<const Token*>& code) {
  std::set<std::string> names;
  HarvestUnorderedNames(code, names);
  return {names.begin(), names.end()};
}

std::vector<Diagnostic> RunRules(const FileContext& context) {
  std::vector<Diagnostic> out;
  const std::vector<const Token*> code = CodeTokens(*context.lexed);
  CheckDetRandom(context, code, out);
  CheckDetUnorderedIter(context, code, out);
  CheckDetPointerKey(context, code, out);
  CheckDetStdHash(context, code, out);
  CheckSerRawBytes(context, code, out);
  CheckErrCatchAll(context, code, out);
  CheckErrExit(context, code, out);
  CheckErrIgnoredStatus(context, code, out);
  CheckPerfStringByValue(context, code, out);
  const LockScan scan = ScanLockRegions(code);
  const LockAnnotations annotations = HarvestLockAnnotations(code);
  CheckLockGuardedField(context, code, scan, annotations, out);
  CheckLockBlockingCall(context, code, scan, annotations, out);
  CheckHeaderHygiene(context, code, out);
  return out;
}

}  // namespace astra::lint
