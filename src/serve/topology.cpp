#include "serve/topology.hpp"

#include "util/strings.hpp"

namespace astra::serve {

std::string NodeDirName(int node_index) {
  std::string digits = std::to_string(node_index);
  const std::size_t width = digits.size() < 4 ? 4 : digits.size();
  return "node-" + std::string(width - digits.size(), '0') + digits;
}

std::optional<ServeTopology> ParseTopologyText(std::string_view text) {
  ServeTopology topology;
  for (std::string_view raw : SplitView(text, '\n')) {
    std::string_view line = TrimView(raw);
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = TrimView(line.substr(0, hash));
    }
    if (line.empty()) continue;

    std::string_view key = line;
    std::string_view value;
    if (const auto eq = line.find('='); eq != std::string_view::npos) {
      key = TrimView(line.substr(0, eq));
      value = TrimView(line.substr(eq + 1));
    } else if (const auto sp = line.find_first_of(" \t");
               sp != std::string_view::npos) {
      key = TrimView(line.substr(0, sp));
      value = TrimView(line.substr(sp + 1));
    } else {
      return std::nullopt;  // a key with no value
    }

    const auto parsed = ParseInt64(value);
    if (!parsed || *parsed <= 0 || *parsed > 1'000'000) return std::nullopt;
    if (key == "racks") {
      topology.racks = static_cast<int>(*parsed);
    } else if (key == "nodes_per_rack") {
      topology.nodes_per_rack = static_cast<int>(*parsed);
    } else {
      return std::nullopt;  // unknown keys are config typos, not extensions
    }
  }
  if (!topology.Valid()) return std::nullopt;
  return topology;
}

}  // namespace astra::serve
