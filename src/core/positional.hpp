// Positional distribution analyses: how errors and faults distribute across
// every structural axis the paper examines — node (Fig. 5), socket / bank /
// column (Fig. 6), rank / DIMM slot (Fig. 7), bit position / physical
// address (Fig. 8), rack region (Figs. 10-11) and rack (Fig. 12).
//
// Everything is tallied twice — once per ERROR record and once per coalesced
// FAULT — because the contrast between the two is the paper's headline
// result: error counts are dominated by a few prolific faults and look
// skewed; fault counts are (mostly) uniform.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/coalesce.hpp"
#include "stats/chi_square.hpp"
#include "stats/histogram.hpp"
#include "stats/power_law.hpp"
#include "util/flat_map.hpp"

namespace astra::core {

struct PositionalCounts {
  // Dense axes.
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

  // Sparse axes.  The flat maps (util/flat_map.hpp) iterate in UNSPECIFIED
  // order; every determinism-sensitive consumer (Snapshot, the power-law fit
  // inputs) walks them via SortedItems().
  std::vector<std::uint64_t> per_node;                     // size = node span
  FlatCountMap<std::int32_t> per_bit_position;             // recorded bit
  FlatCountMap<std::uint64_t> per_address;

  // Region share per rack (Fig. 11): counts[rack][region].
  std::array<std::array<std::uint64_t, kRackRegionCount>, kNumRacks> per_rack_region{};

  [[nodiscard]] std::uint64_t Total() const noexcept;

  // Engine-contract observation (core/engine.hpp): tally one record.
  // Tallying is order-insensitive, so the global sequence number is unused.
  void Observe(const logs::MemoryErrorRecord& record, std::uint64_t /*seq*/);

  // Batched observation (core/engine.hpp): identical state to calling
  // Observe per record, amortizing the per-record engine dispatch.
  void ObserveBatch(std::span<const logs::MemoryErrorRecord> batch,
                    std::uint64_t first_seq);

  // Add another accumulator's tallies into this one (the reduction step of
  // the sharded analysis; addition commutes, and the sparse axes are ordered
  // maps, so the merged result is independent of shard count).  Counts carry
  // no configuration, so the merge always succeeds; the status return is the
  // uniform engine contract.
  [[nodiscard]] bool MergeFrom(const PositionalCounts& other);

  // Checkpoint support (deterministic byte layout; Restore leaves the
  // counts empty and returns false on a malformed payload).
  void Snapshot(binio::Writer& writer) const;
  [[nodiscard]] bool Restore(binio::Reader& reader);
};

struct PositionalAnalysis {
  PositionalCounts errors;  // one increment per error record
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
  UniformityTests error_uniformity;
  UniformityTests fault_uniformity;

  // Fig. 5 artifacts.
  stats::FrequencyTable faults_per_node_frequency;  // x faults -> y nodes
  stats::ConcentrationCurve ce_concentration;       // CDF of CEs by node
  stats::PowerLawFit faults_per_node_fit;
  std::uint64_t nodes_with_errors = 0;
  std::uint64_t node_span = 0;  // number of node ids analysed

  // Fig. 8 artifacts (error-weighted, see DESIGN.md note on Fig. 8 counts).
  stats::PowerLawFit bit_position_fit;
  stats::PowerLawFit address_fit;

  // Graceful degradation: true when too few coalesced faults survived ingest
  // for the uniformity verdicts / power-law fits to mean anything.  The
  // caveats spell out why (damage inherited from the dataset ingest).
  bool low_sample = false;
  std::vector<std::string> caveats;
};

// Compute the full positional analysis.  `node_span` bounds the per-node
// arrays (use the campaign's node_count; records outside are ignored).
// DUE records are excluded to match the paper's CE-based analysis.
// `quality` (optional) carries ingest damage into the result's caveats.
[[nodiscard]] PositionalAnalysis AnalyzePositions(
    std::span<const logs::MemoryErrorRecord> records,
    const CoalesceResult& coalesced, int node_span,
    const DataQuality* quality = nullptr);

// Streaming building blocks: AnalyzePositions is exactly TallyErrorRecord
// over every record followed by FinalizePositions.  TallyErrorRecord ignores
// non-CE records and grows the per-node vector on demand; FinalizePositions
// clamps it back to `node_span`, so an incremental accumulation finalizes to
// the identical analysis a batch run would produce.
void TallyErrorRecord(PositionalCounts& counts,
                      const logs::MemoryErrorRecord& record);
[[nodiscard]] PositionalAnalysis FinalizePositions(PositionalCounts errors,
                                                   const CoalesceResult& coalesced,
                                                   int node_span,
                                                   const DataQuality* quality = nullptr);

}  // namespace astra::core
