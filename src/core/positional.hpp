// Positional distribution analyses: how errors and faults distribute across
// every structural axis the paper examines — node (Fig. 5), socket / bank /
// column (Fig. 6), rank / DIMM slot (Fig. 7), rack region (Figs. 10-11) and
// rack (Fig. 12).
//
// Everything is tallied twice — once per coalesced FAULT (AnalyzePositions)
// and once per ERROR record (TallyErrorPositions) — because the contrast
// between the two is the paper's headline result: error counts are dominated
// by a few prolific faults and look skewed; fault counts are (mostly)
// uniform.  The report renders the fault side and the per-node CE
// concentration, which AnalyzePositions sums from the faults' error counts;
// the figure harnesses that print error counts tally the records themselves.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/coalesce.hpp"
#include "stats/chi_square.hpp"
#include "stats/histogram.hpp"

namespace astra::core {

// One increment per tallied fault or error on each axis.
struct PositionalCounts {
  std::array<std::uint64_t, kSocketsPerNode> per_socket{};
  std::array<std::uint64_t, kBanksPerRank> per_bank{};
  std::array<std::uint64_t, kRanksPerDimm> per_rank{};
  std::array<std::uint64_t, kDimmSlotCount> per_slot{};
  std::array<std::uint64_t, kNumRacks> per_rack{};
  std::array<std::uint64_t, kRackRegionCount> per_region{};
  // Columns bucketed into kColumnBuckets groups of contiguous columns (the
  // paper's Fig. 6c/f plots ~32 column groups).
  static constexpr int kColumnBuckets = 32;
  std::array<std::uint64_t, kColumnBuckets> per_column_bucket{};

  // size = node span; node ids outside it are not counted per node.
  std::vector<std::uint64_t> per_node;

  // Region share per rack (Fig. 11): counts[rack][region].
  std::array<std::array<std::uint64_t, kRackRegionCount>, kNumRacks> per_rack_region{};

  [[nodiscard]] std::uint64_t Total() const noexcept;
};

// AnalyzePositions' output: the fault tallies plus the statistics the report
// renders.  Statistics only a paper figure prints are computed by that
// figure's harness: bench_fig5_per_node and bench_fig8_bit_address call
// stats::FitPowerLaw for Figs. 5a and 8, and the Fig. 6/7/8/10-12 harnesses
// tally the error side with TallyErrorPositions.
struct PositionalAnalysis {
  PositionalCounts faults;  // one increment per coalesced fault

  // Uniformity verdicts for the axes the paper tests (§3.2, §3.4).
  struct UniformityTests {
    stats::ChiSquareResult socket;
    stats::ChiSquareResult bank;
    stats::ChiSquareResult column;
    stats::ChiSquareResult rank;
    stats::ChiSquareResult slot;
    stats::ChiSquareResult rack;
    stats::ChiSquareResult region;
  };
  UniformityTests fault_uniformity;

  // Fig. 5 artifacts.
  stats::FrequencyTable faults_per_node_frequency;  // x faults -> y nodes
  // CEs per node: the sum of the node's faults' error counts.  The coalescer
  // files every CE in exactly one fault and skips every DUE, so this equals
  // TallyErrorPositions(records, node_span).per_node.
  std::vector<std::uint64_t> ces_per_node;
  stats::ConcentrationCurve ce_concentration;       // CDF of CEs by node
  std::uint64_t nodes_with_errors = 0;
  std::uint64_t node_span = 0;  // number of node ids analysed

  // Graceful degradation: true when too few coalesced faults survived ingest
  // for the uniformity verdicts / power-law fits to mean anything.  The
  // caveats spell out why (damage inherited from the dataset ingest).
  bool low_sample = false;
  std::vector<std::string> caveats;
};

// Compute the positional analysis from the coalesced faults.  `node_span`
// bounds the per-node arrays (use the campaign's node_count; faults outside
// are ignored).  `quality` (optional) carries ingest damage into the
// result's caveats.
[[nodiscard]] PositionalAnalysis AnalyzePositions(const CoalesceResult& coalesced,
                                                  int node_span,
                                                  const DataQuality* quality = nullptr);

// The error side of the figures: one increment per CE record (DUE records
// are excluded to match the paper's CE-based analysis), per_node sized to
// `node_span`.
[[nodiscard]] PositionalCounts TallyErrorPositions(
    std::span<const logs::MemoryErrorRecord> records, int node_span);

// Chi-square uniformity verdicts over the axes of `counts`.
[[nodiscard]] PositionalAnalysis::UniformityTests TestUniformity(
    const PositionalCounts& counts);

}  // namespace astra::core
