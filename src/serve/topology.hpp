// Serving topology: how many racks the daemon monitors and how many node
// streams each rack carries.  The default is the paper's Astra machine (36
// racks x 72 nodes = 2592 streams); tests and small deployments shrink it
// via flags or a topology file.  Node streams live in per-node dataset
// directories under one root, named by NodeDirName — the same §2.4 layout
// `analyze` reads, one directory per node instead of one for the fleet.
#pragma once

#include <limits>
#include <optional>
#include <string>

#include "geometry/topology.hpp"

namespace astra::serve {

struct ServeTopology {
  int racks = kNumRacks;
  int nodes_per_rack = kNodesPerRack;

  [[nodiscard]] int NodeCount() const noexcept { return racks * nodes_per_rack; }
  [[nodiscard]] int RackOf(int node_index) const noexcept {
    return node_index / nodes_per_rack;
  }
  // First node index of `rack` (the rack's nodes are the contiguous range
  // [RackBegin, RackBegin + nodes_per_rack)).
  [[nodiscard]] int RackBegin(int rack) const noexcept {
    return rack * nodes_per_rack;
  }
  [[nodiscard]] bool Valid() const noexcept {
    // The product must be computed wide: `int` overflow is UB, not a check.
    return racks > 0 && nodes_per_rack > 0 &&
           static_cast<long long>(racks) * nodes_per_rack <=
               std::numeric_limits<int>::max();
  }

  friend bool operator==(const ServeTopology&, const ServeTopology&) = default;
};

// "node-0007" — the per-node dataset directory name under the serve root.
// Four digits cover Astra (2592 nodes); wider fleets grow the field.
[[nodiscard]] std::string NodeDirName(int node_index);

// Parse the contents of a topology file: `key value` or `key=value` lines
// for keys `racks` and `nodes_per_rack`, '#' comments and blank lines
// ignored.  nullopt on an unknown key, an unparseable value, or an invalid
// resulting topology.  Reading the file is the caller's job, so that an
// unreadable file can be told apart from a malformed one.
[[nodiscard]] std::optional<ServeTopology> ParseTopologyText(
    std::string_view text);

}  // namespace astra::serve
