// Seeded node relabeling that keeps the work of a dataset fixed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// A permutation of node labels drawn from `seed`, where each node may only
// take the label of a node with nearly the same record count: nodes are
// grouped by count (ascending, each group spanning at most `spread` above
// its smallest count; all zero-count nodes form one group) and labels are
// shuffled inside each group.  Returns new_label[node].
//
// Relabeling a simulated fleet this way changes which node ids carry which
// records, so every seed yields a different dataset, while the multiset of
// per-label record counts stays put: label-keyed damage (a corruption
// mode's per-node decisions) and per-node work land on nodes of the same
// size whatever the seed.
[[nodiscard]] std::vector<std::uint32_t> SizeClassRelabeling(
    const std::vector<std::size_t>& records_per_node, std::uint64_t seed,
    double spread = 0.10);

}  // namespace perfbench
