#include "lint/engine.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <queue>
#include <set>
#include <sstream>

#include "lint/layers.hpp"
#include "lint/lexer.hpp"
#include "lint/lock_regions.hpp"
#include "lint/rules.hpp"
#include "lint/suppressions.hpp"

namespace astra::lint {
namespace {

namespace fs = std::filesystem;

bool EndsWith(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool IsSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".hpp" || ext == ".cpp";
}

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return std::move(buffer).str();
}

// The dedup key: one canonical spelling per on-disk file, so the same file
// reached through two roots (or `./`-prefixed) is linted once.
std::string CanonicalPath(const std::string& path) {
  std::error_code ec;
  fs::path canonical = fs::weakly_canonical(path, ec);
  if (!ec && !canonical.empty()) return canonical.string();
  canonical = fs::absolute(path, ec);
  if (!ec) return canonical.lexically_normal().string();
  return path;
}

// What the cross-file rules and the paired .cpp need from a file.
struct FileFacts {
  std::vector<std::pair<int, std::string>> quoted_includes;  // line, path
  LockAnnotations annotations;
  std::vector<LockEdge> lock_edges;          // namespace-qualified keys
  std::vector<std::string> unordered_names;  // for the paired .cpp
};

FileFacts HarvestFileFacts(const LexedFile& lexed) {
  FileFacts facts;
  for (const Directive& directive : lexed.directives) {
    if (directive.name == "include" && directive.quoted_include) {
      facts.quoted_includes.emplace_back(directive.line, directive.argument);
    }
  }
  const std::vector<const Token*> code = CodeTokens(lexed);
  facts.annotations = HarvestLockAnnotations(code);
  facts.lock_edges = ScanLockRegions(code).edges;
  facts.unordered_names = UnorderedContainerNames(code);
  return facts;
}

struct FileState {
  std::string scope_path;  // normalized, possibly test-overridden
  LexedFile lexed;
  SuppressionSet suppressions;
  FileFacts facts;
};

// Step 1 for one file: its single lex, the test path override, its
// suppressions and its facts.
FileState ScanFile(const std::string& path, std::string_view source,
                   const LintOptions& options) {
  FileState file;
  file.scope_path = NormalizeRepoPath(path);
  file.lexed = Lex(source);
  if (options.honor_test_overrides) {
    if (std::optional<TestOverride> override = ParseTestOverride(file.lexed);
        override && !override->path.empty()) {
      file.scope_path = NormalizeRepoPath(override->path);
    }
  }
  file.suppressions = ParseSuppressions(file.lexed, file.scope_path);
  file.facts = HarvestFileFacts(file.lexed);
  return file;
}

// Reachability over quoted includes from the report renderer: these files
// feed bytes into rendered reports, so the determinism rules extend to them
// even outside core/ and stream/.
std::set<std::string> ReportLinkedFiles(const std::vector<FileState>& files) {
  std::map<std::string, const std::vector<std::pair<int, std::string>>*>
      includes_of;
  for (const FileState& file : files) {
    includes_of.emplace(file.scope_path, &file.facts.quoted_includes);
  }
  std::set<std::string> linked;
  std::queue<std::string> frontier;
  for (const char* root : {"core/report.cpp", "core/report.hpp"}) {
    if (includes_of.count(root) > 0 && linked.insert(root).second) {
      frontier.push(root);
    }
  }
  while (!frontier.empty()) {
    const std::string current = std::move(frontier.front());
    frontier.pop();
    const auto it = includes_of.find(current);
    if (it == includes_of.end()) continue;
    for (const auto& [line, included] : *it->second) {
      if (includes_of.count(included) > 0 && linked.insert(included).second) {
        frontier.push(included);
      }
    }
  }
  return linked;
}

void AddGlobal(std::vector<Diagnostic>& out, const std::string& file, int line,
               Rule rule, std::string message) {
  Diagnostic diagnostic;
  diagnostic.file = file;
  diagnostic.line = line;
  diagnostic.rule = rule;
  diagnostic.message = std::move(message);
  out.push_back(std::move(diagnostic));
}

// --- arch-upward-include (global, facts-only) ---------------------------------

void CheckLayering(const std::vector<FileState>& files,
                   const LayerMatrix& matrix,
                   std::vector<Diagnostic>& out) {
  for (const FileState& file : files) {
    const std::string from = LayerOf(file.scope_path);
    if (from.empty() || !matrix.Known(from)) continue;
    for (const auto& [line, included] : file.facts.quoted_includes) {
      const std::string to = LayerOf(included);
      if (to.empty() || !matrix.Known(to)) continue;
      if (matrix.Allows(from, to)) continue;
      if (file.suppressions.Allows(Rule::kArchUpwardInclude, line)) continue;
      AddGlobal(out, file.scope_path, line, Rule::kArchUpwardInclude,
                "#include \"" + included + "\" makes layer '" + from +
                    "' depend on layer '" + to +
                    "' — the layer matrix (src/lint/layers.conf) only allows "
                    "downward edges; move the shared code down or fix the "
                    "dependency direction");
    }
  }
}

// --- lock-order (global, facts-only) ------------------------------------------

struct EdgeSite {
  std::size_t file_index = 0;
  std::string file;  // scope path (ordering + diagnostics)
  int line = 0;
};

void CheckLockOrder(const std::vector<FileState>& files,
                    std::vector<Diagnostic>& out) {
  // Adjacency over qualified mutex keys; keep the earliest (file, line)
  // site per directed edge for deterministic diagnostics.
  std::map<std::string, std::map<std::string, EdgeSite>> graph;
  for (std::size_t i = 0; i < files.size(); ++i) {
    for (const LockEdge& edge : files[i].facts.lock_edges) {
      EdgeSite site{i, files[i].scope_path, edge.line};
      auto [it, inserted] = graph[edge.held].emplace(edge.acquired, site);
      graph.emplace(edge.acquired,
                    std::map<std::string, EdgeSite>());  // ensure node exists
      if (!inserted && (site.file < it->second.file ||
                        (site.file == it->second.file &&
                         site.line < it->second.line))) {
        it->second = site;
      }
    }
  }
  if (graph.empty()) return;

  // Tarjan SCC (iterative state kept in maps; the graph is tiny).
  std::map<std::string, int> index, lowlink;
  std::set<std::string> on_stack;
  std::vector<std::string> stack;
  std::vector<std::vector<std::string>> sccs;
  int next_index = 0;
  std::function<void(const std::string&)> strongconnect =
      [&](const std::string& node) {
        index[node] = lowlink[node] = next_index++;
        stack.push_back(node);
        on_stack.insert(node);
        const auto adj = graph.find(node);
        if (adj != graph.end()) {
          for (const auto& [next, site] : adj->second) {
            if (index.count(next) == 0) {
              strongconnect(next);
              lowlink[node] = std::min(lowlink[node], lowlink[next]);
            } else if (on_stack.count(next) > 0) {
              lowlink[node] = std::min(lowlink[node], index[next]);
            }
          }
        }
        if (lowlink[node] == index[node]) {
          std::vector<std::string> scc;
          while (true) {
            const std::string top = stack.back();
            stack.pop_back();
            on_stack.erase(top);
            scc.push_back(top);
            if (top == node) break;
          }
          if (scc.size() > 1) sccs.push_back(std::move(scc));
        }
      };
  for (const auto& [node, adj] : graph) {
    if (index.count(node) == 0) strongconnect(node);
  }

  for (std::vector<std::string>& scc : sccs) {
    std::sort(scc.begin(), scc.end());
    const std::set<std::string> members(scc.begin(), scc.end());
    // Representative site: the lexicographically earliest (file, line) edge
    // inside the cycle.  An allow() on ANY edge of the cycle suppresses it —
    // the annotation lives at the site the author claims is safe, which is
    // rarely the representative one.
    const EdgeSite* best = nullptr;
    bool allowed = false;
    for (const std::string& held : scc) {
      const auto adj = graph.find(held);
      if (adj == graph.end()) continue;
      for (const auto& [acquired, site] : adj->second) {
        if (members.count(acquired) == 0) continue;
        const SuppressionSet& suppressions = files[site.file_index].suppressions;
        allowed = allowed || suppressions.Allows(Rule::kLockOrder, site.line);
        if (best == nullptr || site.file < best->file ||
            (site.file == best->file && site.line < best->line)) {
          best = &site;
        }
      }
    }
    if (best == nullptr || allowed) continue;
    std::string nodes;
    for (const std::string& node : scc) {
      if (!nodes.empty()) nodes += ", ";
      nodes += "'" + node + "'";
    }
    AddGlobal(out, best->file, best->line, Rule::kLockOrder,
              "lock acquisition cycle among " + nodes +
                  " — this site nests them one way and another call path "
                  "nests them the other way; pick one global order (or "
                  "collapse to a single std::scoped_lock)");
  }
}

// --- steps 2 and 3 of the pass ------------------------------------------------

void AnalyzeFiles(const std::vector<FileState>& files, const LintOptions& options,
                  LintResult& result) {
  // Step 2: cross-file structures and the facts-only global rules.
  std::map<std::string, std::size_t> scope_index;
  for (std::size_t i = 0; i < files.size(); ++i) {
    scope_index.emplace(files[i].scope_path, i);
  }
  const std::set<std::string> report_linked = ReportLinkedFiles(files);

  std::set<std::string> global_blocking;
  std::map<std::string, std::set<std::string>> global_excludes;
  for (const FileState& file : files) {
    global_blocking.insert(file.facts.annotations.blocking.begin(),
                           file.facts.annotations.blocking.end());
    for (const auto& [fn, keys] : file.facts.annotations.excludes) {
      global_excludes[fn].insert(keys.begin(), keys.end());
    }
  }

  LayerMatrix matrix = DefaultLayerMatrix();
  if (!options.layers_path.empty()) {
    const std::optional<std::string> conf = ReadFile(options.layers_path);
    std::string error;
    std::optional<LayerMatrix> parsed;
    if (conf) parsed = ParseLayerMatrix(*conf, &error);
    if (parsed) {
      matrix = std::move(*parsed);
    } else {
      result.io_errors.push_back(options.layers_path + ": " +
                                 (conf ? "bad layer matrix: " + error
                                       : "unreadable") +
                                 " (using the compiled-in matrix)");
    }
  }
  CheckLayering(files, matrix, result.diagnostics);
  CheckLockOrder(files, result.diagnostics);

  // Step 3: the per-file rules, each .cpp seeing its paired header's facts.
  for (std::size_t i = 0; i < files.size(); ++i) {
    const FileState& file = files[i];
    FileContext context;
    context.path = file.scope_path;
    context.lexed = &file.lexed;
    context.report_linked = report_linked.count(file.scope_path) > 0;
    if (EndsWith(file.scope_path, ".cpp")) {
      const std::string header =
          file.scope_path.substr(0, file.scope_path.size() - 4) + ".hpp";
      const auto it = scope_index.find(header);
      if (it != scope_index.end() && it->second != i) {
        const FileFacts& paired = files[it->second].facts;
        context.paired_unordered_names = paired.unordered_names;
        context.paired_guarded = paired.annotations.guarded;
      }
    }
    context.global_blocking = &global_blocking;
    context.global_excludes = &global_excludes;

    for (Diagnostic& diagnostic : RunRules(context)) {
      if (!file.suppressions.Allows(diagnostic.rule, diagnostic.line)) {
        result.diagnostics.push_back(std::move(diagnostic));
      }
    }
    result.diagnostics.insert(result.diagnostics.end(),
                              file.suppressions.malformed.begin(),
                              file.suppressions.malformed.end());
  }
  result.files_scanned = files.size();
  std::sort(result.diagnostics.begin(), result.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return RuleId(a.rule) < RuleId(b.rule);
            });
}

void JsonEscape(std::ostream& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out << "\\u00" << kHex[(c >> 4) & 0xF] << kHex[c & 0xF];
        } else {
          out << c;
        }
    }
  }
}

}  // namespace

std::string NormalizeRepoPath(std::string_view path) {
  std::string normalized(path);
  std::replace(normalized.begin(), normalized.end(), '\\', '/');
  while (normalized.substr(0, 2) == "./") normalized.erase(0, 2);
  // Last `src/` component wins: `/root/repo/src/core/x.cpp` -> `core/x.cpp`.
  const std::string needle = "src/";
  std::size_t best = std::string::npos;
  for (std::size_t at = normalized.find(needle); at != std::string::npos;
       at = normalized.find(needle, at + 1)) {
    if (at == 0 || normalized[at - 1] == '/') best = at;
  }
  if (best != std::string::npos) normalized.erase(0, best + needle.size());
  return normalized;
}

LintResult LintTree(const std::vector<std::string>& roots,
                    const LintOptions& options) {
  LintResult result;
  std::vector<std::string> paths;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (fs::recursive_directory_iterator it(root, ec), end; it != end;
           it.increment(ec)) {
        if (ec) break;
        if (it->is_regular_file(ec) && IsSourceFile(it->path())) {
          paths.push_back(it->path().string());
        }
      }
      if (ec) result.io_errors.push_back(root + ": " + ec.message());
    } else if (fs::is_regular_file(root, ec)) {
      paths.push_back(root);
    } else {
      result.io_errors.push_back(root + ": not a file or directory");
    }
  }

  std::vector<FileState> files;
  files.reserve(paths.size());
  std::set<std::string> seen;
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  for (const std::string& path : paths) {
    // Same on-disk file via a second spelling: lint it once.
    if (!seen.insert(CanonicalPath(path)).second) continue;
    const std::optional<std::string> source = ReadFile(path);
    if (!source) {
      result.io_errors.push_back(path + ": unreadable");
      continue;
    }
    files.push_back(ScanFile(path, *source, options));
  }
  AnalyzeFiles(files, options, result);
  return result;
}

LintResult LintSource(const std::string& path, std::string_view source,
                      const LintOptions& options) {
  LintResult result;
  std::vector<FileState> files;
  files.push_back(ScanFile(path, source, options));
  AnalyzeFiles(files, options, result);
  return result;
}

void RenderText(std::ostream& out, const LintResult& result) {
  for (const Diagnostic& diagnostic : result.diagnostics) {
    out << diagnostic.file << ':' << diagnostic.line << ": error: ["
        << RuleId(diagnostic.rule) << "] " << diagnostic.message << '\n';
  }
  for (const std::string& error : result.io_errors) {
    out << "astra-lint: io error: " << error << '\n';
  }
  out << "astra-lint: " << result.diagnostics.size() << " diagnostic(s), "
      << result.files_scanned << " file(s) scanned\n";
}

void RenderJson(std::ostream& out, const LintResult& result) {
  out << "{\n  \"files_scanned\": " << result.files_scanned
      << ",\n  \"diagnostics\": [";
  bool first = true;
  for (const Diagnostic& diagnostic : result.diagnostics) {
    out << (first ? "\n" : ",\n") << "    {\"file\": \"";
    JsonEscape(out, diagnostic.file);
    out << "\", \"line\": " << diagnostic.line << ", \"rule\": \""
        << RuleId(diagnostic.rule) << "\", \"message\": \"";
    JsonEscape(out, diagnostic.message);
    out << "\"}";
    first = false;
  }
  out << (first ? "]" : "\n  ]") << ",\n  \"io_errors\": [";
  first = true;
  for (const std::string& error : result.io_errors) {
    out << (first ? "\n" : ",\n") << "    \"";
    JsonEscape(out, error);
    out << '"';
    first = false;
  }
  out << (first ? "]" : "\n  ]") << "\n}\n";
}

void RenderSarif(std::ostream& out, const LintResult& result) {
  out << "{\n"
         "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
         "  \"version\": \"2.1.0\",\n"
         "  \"runs\": [\n"
         "    {\n"
         "      \"tool\": {\n"
         "        \"driver\": {\n"
         "          \"name\": \"astra-lint\",\n"
         "          \"informationUri\": \"DESIGN.md\",\n"
         "          \"rules\": [";
  bool first = true;
  for (const RuleInfo& info : kRules) {
    out << (first ? "\n" : ",\n") << "            {\"id\": \"" << info.id
        << "\", \"shortDescription\": {\"text\": \"";
    JsonEscape(out, info.summary);
    out << "\"}}";
    first = false;
  }
  out << "\n          ]\n"
         "        }\n"
         "      },\n"
         "      \"results\": [";
  first = true;
  for (const Diagnostic& diagnostic : result.diagnostics) {
    out << (first ? "\n" : ",\n")
        << "        {\"ruleId\": \"" << RuleId(diagnostic.rule)
        << "\", \"level\": \"error\", \"message\": {\"text\": \"";
    JsonEscape(out, diagnostic.message);
    out << "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \"src/";
    JsonEscape(out, diagnostic.file);
    out << "\"}, \"region\": {\"startLine\": "
        << (diagnostic.line > 0 ? diagnostic.line : 1) << "}}}]}";
    first = false;
  }
  out << (first ? "]" : "\n      ]") << "\n    }\n  ]\n}\n";
}

}  // namespace astra::lint
