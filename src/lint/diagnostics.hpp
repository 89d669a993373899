// Rule catalogue and diagnostic record shared by the rule implementations,
// the engine, and the CLI renderers.
#pragma once

#include <array>
#include <string>
#include <string_view>

namespace astra::lint {

// Every rule astra-lint enforces.  Order here is the order `--list-rules`
// prints and the order the DESIGN.md catalogue documents.
enum class Rule {
  kDetRandom,         // wall-clock / libc randomness outside the sim clock
  kDetUnorderedIter,  // hash-order iteration in determinism-scoped files
  kDetPointerKey,     // pointer-keyed ordered containers (ASLR order)
  kDetStdHash,        // the standard hash<>, whose values differ across libraries
  kSerRawBytes,       // raw byte (de)serialization outside util/binio
  kErrCatchAll,       // bare catch (...)
  kErrExit,           // exit()/abort() outside src/tools/
  kErrIgnoredStatus,  // discarded status from ingest/checkpoint APIs
  kHdrPragmaOnce,     // header missing #pragma once
  kHdrUsingNamespace, // using namespace at header scope
  kPerfStringByValue, // by-value std::string parameter on a hot-path signature
  kBadSuppression,    // malformed allow() suppression comment
  kLockGuardedField,  // ASTRA_GUARDED_BY member touched outside its mutex
  kLockBlockingCall,  // blocking / EXCLUDES call inside an open lock region
  kLockOrder,         // cycle in the cross-TU lock acquisition graph
  kArchUpwardInclude, // include edge the layer matrix forbids
};

inline constexpr int kRuleCount = 16;

struct RuleInfo {
  Rule rule;
  std::string_view id;       // stable kebab-case id used in allow(...)
  std::string_view summary;  // one-line description for --list-rules
};

inline constexpr std::array<RuleInfo, kRuleCount> kRules = {{
    {Rule::kDetRandom, "det-random",
     "std::rand/srand, time(nullptr), system_clock::now, random_device are "
     "banned outside util/sim_time (stream/ may read wall clocks for polling)"},
    {Rule::kDetUnorderedIter, "det-unordered-iter",
     "no range-for or .begin() iteration over unordered_map/unordered_set in "
     "core/, stream/, or files reachable from the report renderer"},
    {Rule::kDetPointerKey, "det-pointer-key",
     "std::map/std::set keyed by a raw pointer iterate in allocation order"},
    {Rule::kDetStdHash, "det-std-hash",
     "the standard library's hash<> values differ across libraries and "
     "builds, so they must never reach a report or a checkpoint — mix fields "
     "with util/rng MixSeed instead"},
    {Rule::kSerRawBytes, "ser-raw-bytes",
     "memcpy/reinterpret_cast/fwrite in checkpoint paths (stream/, "
     "util/binio*) must go through util/binio readers and writers"},
    {Rule::kErrCatchAll, "err-catch-all", "bare catch (...) swallows failures"},
    {Rule::kErrExit, "err-exit",
     "exit()/abort() outside src/tools/ kills the embedding process"},
    {Rule::kErrIgnoredStatus, "err-ignored-status",
     "status result of an ingest/checkpoint API discarded as a statement"},
    {Rule::kHdrPragmaOnce, "hdr-pragma-once", "header is missing #pragma once"},
    {Rule::kHdrUsingNamespace, "hdr-using-namespace",
     "using namespace at header scope leaks into every includer"},
    {Rule::kPerfStringByValue, "perf-string-by-value",
     "by-value std::string parameter in logs/ or core/ copies on every call — "
     "take std::string_view or const std::string&"},
    {Rule::kBadSuppression, "bad-suppression",
     "an allow() suppression needs a known rule and a non-empty justification"},
    {Rule::kLockGuardedField, "lock-guarded-field",
     "member annotated ASTRA_GUARDED_BY(mu) accessed outside a lock region of "
     "mu (and outside any ASTRA_REQUIRES(mu) function body)"},
    {Rule::kLockBlockingCall, "lock-blocking-call",
     "call that can block indefinitely (ASTRA_BLOCKING, sleep_for/until, or an "
     "ASTRA_EXCLUDES(mu) function with mu held) made inside a lock region"},
    {Rule::kLockOrder, "lock-order",
     "the cross-TU lock acquisition graph has a cycle — two call paths take "
     "the same mutexes in opposite orders"},
    {Rule::kArchUpwardInclude, "arch-upward-include",
     "quoted include crosses the layer matrix upward (e.g. core/ including "
     "serve/) — lower layers must not depend on higher ones"},
}};

[[nodiscard]] constexpr std::string_view RuleId(Rule rule) noexcept {
  for (const RuleInfo& info : kRules) {
    if (info.rule == rule) return info.id;
  }
  return "unknown";
}

struct Diagnostic {
  std::string file;  // repo-relative path as scanned
  int line = 0;
  Rule rule = Rule::kBadSuppression;
  std::string message;
};

}  // namespace astra::lint
