// Layer matrix for the `arch-upward-include` rule.
//
// Each top-level directory under src/ is a layer.  A row names the layers a
// directory's files may reach with quoted includes; anything else is an
// upward (or sideways) dependency the architecture forbids — the classic
// failure being a lower layer reaching into `serve/`.  System/`<...>`
// includes and unknown directories (tests, corpus overrides outside src/)
// are never checked.
//
// The matrix ships twice on purpose: `DefaultLayerMatrix()` is compiled in
// so LintSource and the corpus need no filesystem, and `src/lint/layers.conf`
// is the committed, reviewable copy the CLI loads for tree runs.  A unit
// test asserts the two are identical, so the conf file cannot drift.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>

namespace astra::lint {

struct LayerMatrix {
  // layer -> layers it may include.  Self-edges are implicitly allowed.
  std::map<std::string, std::set<std::string>> allowed;

  [[nodiscard]] bool Known(const std::string& layer) const {
    return allowed.count(layer) > 0;
  }
  // Only pronounces on edges between two KNOWN layers; everything else is
  // out of the matrix's jurisdiction and allowed.
  [[nodiscard]] bool Allows(const std::string& from, const std::string& to) const {
    if (from == to || !Known(from) || !Known(to)) return true;
    return allowed.at(from).count(to) > 0;
  }
  // Canonical text form (rows sorted, deps sorted) — used by the
  // drift-guard test.
  [[nodiscard]] std::string Serialize() const;
};

// The compiled-in matrix for this repo's src/ tree.
[[nodiscard]] LayerMatrix DefaultLayerMatrix();

// Parse the conf format: one `layer: dep dep ...` row per line, `#` starts
// a comment, blank lines ignored.  Returns std::nullopt (and fills *error)
// on a malformed line or a dep naming no declared layer row.
[[nodiscard]] std::optional<LayerMatrix> ParseLayerMatrix(std::string_view text,
                                                          std::string* error);

// Layer of a repo-relative path: "serve/daemon.cpp" -> "serve"; empty when
// the path has no directory component.
[[nodiscard]] std::string LayerOf(std::string_view path);

}  // namespace astra::lint
