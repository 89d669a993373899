#include "core/positional.hpp"

#include <algorithm>

namespace astra::core {
namespace {

void Tally(PositionalCounts& counts, NodeId node, SocketId socket, DimmSlot slot,
           RankId rank, BankId bank, std::uint64_t address) {
  const NodeLocation loc = LocateNode(node);
  const auto region = static_cast<int>(RegionOfChassis(loc.chassis));
  ++counts.per_socket[static_cast<std::size_t>(socket)];
  ++counts.per_bank[static_cast<std::size_t>(bank)];
  ++counts.per_rank[static_cast<std::size_t>(rank)];
  ++counts.per_slot[static_cast<std::size_t>(static_cast<int>(slot))];
  ++counts.per_rack[static_cast<std::size_t>(loc.rack)];
  ++counts.per_region[static_cast<std::size_t>(region)];
  ++counts.per_rack_region[static_cast<std::size_t>(loc.rack)]
                          [static_cast<std::size_t>(region)];
  const DramCoord coord = DecodePhysicalAddress(node, address);
  const int bucket = static_cast<int>(coord.column) *
                     PositionalCounts::kColumnBuckets / kColumnsPerRow;
  ++counts.per_column_bucket[static_cast<std::size_t>(
      std::clamp(bucket, 0, PositionalCounts::kColumnBuckets - 1))];
  if (node >= 0 && static_cast<std::size_t>(node) < counts.per_node.size()) {
    ++counts.per_node[static_cast<std::size_t>(node)];
  }
}

}  // namespace

std::uint64_t PositionalCounts::Total() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t v : per_socket) total += v;
  return total;
}

PositionalAnalysis::UniformityTests TestUniformity(const PositionalCounts& counts) {
  PositionalAnalysis::UniformityTests tests;
  tests.socket = stats::ChiSquareUniform(counts.per_socket);
  tests.bank = stats::ChiSquareUniform(counts.per_bank);
  tests.column = stats::ChiSquareUniform(counts.per_column_bucket);
  tests.rank = stats::ChiSquareUniform(counts.per_rank);
  tests.slot = stats::ChiSquareUniform(counts.per_slot);
  tests.rack = stats::ChiSquareUniform(counts.per_rack);
  tests.region = stats::ChiSquareUniform(counts.per_region);
  return tests;
}

PositionalCounts TallyErrorPositions(std::span<const logs::MemoryErrorRecord> records,
                                     int node_span) {
  PositionalCounts errors;
  errors.per_node.assign(static_cast<std::size_t>(node_span), 0);
  for (const auto& record : records) {
    if (record.type != logs::FailureType::kCorrectable) continue;
    Tally(errors, record.node, record.socket, record.slot, record.rank,
          record.bank, record.physical_address);
  }
  return errors;
}

PositionalAnalysis AnalyzePositions(const CoalesceResult& coalesced, int node_span,
                                    const DataQuality* quality) {
  const auto span = static_cast<std::size_t>(node_span);
  PositionalAnalysis analysis;
  analysis.node_span = span;
  analysis.faults.per_node.assign(span, 0);
  analysis.ces_per_node.assign(span, 0);

  // --- faults: one tally per coalesced fault -------------------------------
  for (const auto& f : coalesced.faults) {
    Tally(analysis.faults, f.node, f.socket, f.slot, f.rank, f.bank,
          f.anchor_address);
    if (f.node >= 0 && static_cast<std::size_t>(f.node) < span) {
      analysis.ces_per_node[static_cast<std::size_t>(f.node)] += f.error_count;
    }
  }
  analysis.fault_uniformity = TestUniformity(analysis.faults);

  // --- Fig. 5: per-node distribution and concentration ---------------------
  for (const std::uint64_t count : analysis.faults.per_node) {
    if (count > 0) analysis.faults_per_node_frequency.Add(count);
  }
  analysis.ce_concentration = stats::ComputeConcentration(analysis.ces_per_node);
  for (const std::uint64_t count : analysis.ces_per_node) {
    if (count > 0) ++analysis.nodes_with_errors;
  }

  // --- graceful degradation -------------------------------------------------
  if (coalesced.faults.size() < kMinFaultsForUniformity) {
    analysis.low_sample = true;
    analysis.caveats.push_back(
        "only " + std::to_string(coalesced.faults.size()) + " coalesced faults (< " +
        std::to_string(kMinFaultsForUniformity) +
        "): uniformity verdicts and power-law fits are unreliable");
  }
  if (quality != nullptr && quality->Degraded()) {
    const auto extra = quality->Caveats();
    analysis.caveats.insert(analysis.caveats.end(), extra.begin(), extra.end());
  }

  return analysis;
}

}  // namespace astra::core
