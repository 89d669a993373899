#include "lint/layers.hpp"

#include <sstream>
#include <vector>

namespace astra::lint {

std::string LayerMatrix::Serialize() const {
  std::string out;
  for (const auto& [layer, deps] : allowed) {
    out += layer;
    out += ':';
    for (const std::string& dep : deps) {
      out += ' ';
      out += dep;
    }
    out += '\n';
  }
  return out;
}

LayerMatrix DefaultLayerMatrix() {
  // Kept in lockstep with src/lint/layers.conf (LayersConfMatchesDefault
  // asserts equality).  Rows are allowed DOWNWARD edges; the absence of an
  // edge is what arch-upward-include enforces.
  LayerMatrix matrix;
  matrix.allowed = {
      {"util", {}},
      {"geometry", {"util"}},
      {"stats", {"util"}},
      {"ecc", {"util"}},
      {"logs", {"util", "geometry"}},
      {"sensors", {"util", "geometry", "logs"}},
      {"replace", {"util", "logs"}},
      {"faultsim", {"util", "geometry", "ecc", "logs", "sensors"}},
      {"core",
       {"util", "geometry", "stats", "ecc", "logs", "sensors", "faultsim",
        "replace"}},
      {"campaign",
       {"util", "geometry", "stats", "ecc", "logs", "sensors", "faultsim",
        "core"}},
      {"stream", {"util", "logs", "stats", "core"}},
      {"serve",
       {"util", "geometry", "stats", "logs", "faultsim", "core", "stream"}},
      {"lint", {}},
      {"tools",
       {"util", "geometry", "stats", "ecc", "logs", "sensors", "replace",
        "faultsim", "core", "campaign", "stream", "serve", "lint"}},
  };
  return matrix;
}

std::optional<LayerMatrix> ParseLayerMatrix(std::string_view text,
                                            std::string* error) {
  LayerMatrix matrix;
  std::vector<std::pair<std::string, std::string>> edges;  // for validation
  std::istringstream in{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream fields(line);
    std::string layer;
    if (!(fields >> layer)) continue;  // blank / comment-only
    if (layer.back() != ':') {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) +
                 ": expected `layer:` at the start of a row, got `" + layer + "`";
      }
      return std::nullopt;
    }
    layer.pop_back();
    if (layer.empty() || matrix.allowed.count(layer) > 0) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": " +
                 (layer.empty() ? std::string("empty layer name")
                                : "duplicate row for `" + layer + "`");
      }
      return std::nullopt;
    }
    auto& deps = matrix.allowed[layer];
    std::string dep;
    while (fields >> dep) {
      deps.insert(dep);
      edges.emplace_back(layer, dep);
    }
  }
  for (const auto& [layer, dep] : edges) {
    if (matrix.allowed.count(dep) == 0) {
      if (error != nullptr) {
        *error = "row `" + layer + "` allows unknown layer `" + dep +
                 "` — every dep needs its own row";
      }
      return std::nullopt;
    }
  }
  return matrix;
}

std::string LayerOf(std::string_view path) {
  const std::size_t slash = path.find('/');
  if (slash == std::string_view::npos) return {};
  return std::string(path.substr(0, slash));
}

}  // namespace astra::lint
