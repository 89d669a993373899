#include "core/positional.hpp"

#include <gtest/gtest.h>

#include <map>

#include "faultsim/fleet.hpp"
#include "stats/power_law.hpp"

namespace astra::core {
namespace {

// Shared medium-scale campaign for the positional checks.
struct Fixture {
  Fixture() {
    config.SeedFrom(2024);
    config.node_count = 600;
    result = faultsim::FleetSimulator(config).Run();
    coalesced = FaultCoalescer::Coalesce(result.memory_errors);
    analysis = AnalyzePositions(coalesced, config.node_count);
    errors = TallyErrorPositions(result.memory_errors, config.node_count);
  }
  faultsim::CampaignConfig config;
  faultsim::CampaignResult result;
  CoalesceResult coalesced;
  PositionalAnalysis analysis;
  PositionalCounts errors;  // one increment per CE record
};

const Fixture& Shared() {
  static const Fixture fixture;
  return fixture;
}

TEST(PositionalTest, ErrorTotalsConsistent) {
  const auto& f = Shared();
  EXPECT_EQ(f.errors.Total(), f.result.total_ces);
  EXPECT_EQ(f.analysis.faults.Total(), f.coalesced.faults.size());
}

TEST(PositionalTest, PerNodeSumsMatch) {
  const auto& f = Shared();
  std::uint64_t node_sum = 0;
  for (const std::uint64_t c : f.errors.per_node) node_sum += c;
  EXPECT_EQ(node_sum, f.result.total_ces);
}

TEST(PositionalTest, AxesSumToTotal) {
  const auto& f = Shared();
  for (const auto* counts : {&f.errors, &f.analysis.faults}) {
    const std::uint64_t total = counts->Total();
    std::uint64_t rank_sum = 0, slot_sum = 0, bank_sum = 0, region_sum = 0,
                  column_sum = 0;
    for (const auto c : counts->per_rank) rank_sum += c;
    for (const auto c : counts->per_slot) slot_sum += c;
    for (const auto c : counts->per_bank) bank_sum += c;
    for (const auto c : counts->per_region) region_sum += c;
    for (const auto c : counts->per_column_bucket) column_sum += c;
    EXPECT_EQ(rank_sum, total);
    EXPECT_EQ(slot_sum, total);
    EXPECT_EQ(bank_sum, total);
    EXPECT_EQ(region_sum, total);
    EXPECT_EQ(column_sum, total);
  }
}

TEST(PositionalTest, RackRegionMatrixConsistent) {
  const auto& f = Shared();
  std::uint64_t matrix_sum = 0;
  for (int rack = 0; rack < kNumRacks; ++rack) {
    std::uint64_t rack_sum = 0;
    for (int region = 0; region < kRackRegionCount; ++region) {
      rack_sum += f.errors.per_rack_region[static_cast<std::size_t>(rack)]
                                          [static_cast<std::size_t>(region)];
    }
    EXPECT_EQ(rack_sum, f.errors.per_rack[static_cast<std::size_t>(rack)]);
    matrix_sum += rack_sum;
  }
  EXPECT_EQ(matrix_sum, f.errors.Total());
}

TEST(PositionalTest, FaultsUniformAcrossSocketBankColumn) {
  // §3.2's headline: FAULTS are uniform across socket, bank, column.
  const auto& f = Shared();
  EXPECT_TRUE(f.analysis.fault_uniformity.socket.ConsistentWithUniform())
      << "V=" << f.analysis.fault_uniformity.socket.cramers_v;
  EXPECT_TRUE(f.analysis.fault_uniformity.bank.ConsistentWithUniform())
      << "V=" << f.analysis.fault_uniformity.bank.cramers_v;
  EXPECT_TRUE(f.analysis.fault_uniformity.column.ConsistentWithUniform())
      << "V=" << f.analysis.fault_uniformity.column.cramers_v;
}

TEST(PositionalTest, FaultsSkewedAcrossSlotAndRank) {
  // §3.2: slots and ranks are NOT uniform.
  const auto& f = Shared();
  EXPECT_FALSE(f.analysis.fault_uniformity.slot.ConsistentWithUniform());
  EXPECT_GT(f.analysis.faults.per_rank[0], f.analysis.faults.per_rank[1]);
}

TEST(PositionalTest, HotSlotsLeadColdSlots) {
  // Fig. 7d: J,E,I,P lead; A,K,L,M,N trail.
  const auto& f = Shared();
  const auto& slots = f.analysis.faults.per_slot;
  const auto slot_count = [&](DimmSlot s) {
    return slots[static_cast<std::size_t>(static_cast<int>(s))];
  };
  const std::uint64_t hot = slot_count(DimmSlot::J) + slot_count(DimmSlot::E) +
                            slot_count(DimmSlot::I) + slot_count(DimmSlot::P);
  const std::uint64_t cold = slot_count(DimmSlot::A) + slot_count(DimmSlot::K) +
                             slot_count(DimmSlot::L) + slot_count(DimmSlot::M) +
                             slot_count(DimmSlot::N);
  EXPECT_GT(hot, cold * 2);
}

TEST(PositionalTest, ConcentrationCurveMatchesPaperShape) {
  // Fig. 5b: a small set of nodes holds most CEs.
  const auto& f = Shared();
  const double top_2pct = f.analysis.ce_concentration.ShareOfTop(
      static_cast<std::size_t>(0.02 * f.config.node_count));
  EXPECT_GT(top_2pct, 0.5);
  EXPECT_LT(f.analysis.nodes_with_errors,
            static_cast<std::uint64_t>(f.config.node_count) / 2);
}

TEST(PositionalTest, FaultsPerNodePowerLawPlausible) {
  const auto& f = Shared();
  // Zeros are ignored, so this fits the nodes with at least one fault.
  const stats::PowerLawFit fit = stats::FitPowerLaw(f.analysis.faults.per_node);
  ASSERT_TRUE(fit.Valid());
  EXPECT_GT(fit.alpha, 1.2);
  EXPECT_LT(fit.alpha, 5.0);
}

TEST(PositionalTest, BitPositionCountsHeavyTailed) {
  const auto& f = Shared();
  // Fig. 8a: most recorded bit positions see few errors, a few see many.
  std::map<std::int32_t, std::uint64_t> per_bit_position;
  for (const auto& r : f.result.memory_errors) {
    if (r.type == logs::FailureType::kCorrectable) ++per_bit_position[r.bit_position];
  }
  std::uint64_t max_count = 0, total = 0;
  for (const auto& [bit, count] : per_bit_position) {
    max_count = std::max(max_count, count);
    total += count;
  }
  EXPECT_GT(max_count, total / 50);  // one position dominates far above mean
}

TEST(PositionalTest, SyntheticSkewDetected) {
  // Hand-built records concentrated on one socket must fail uniformity.
  std::vector<logs::MemoryErrorRecord> records;
  for (int i = 0; i < 500; ++i) {
    logs::MemoryErrorRecord r;
    r.timestamp = SimTime::FromCivil(2019, 4, 1).AddMinutes(i);
    r.node = i % 50;
    r.slot = static_cast<DimmSlot>(i % 8);  // socket 0 only
    r.socket = 0;
    r.rank = 0;
    r.bank = static_cast<BankId>(i % kBanksPerRank);
    r.bit_position = i % 72;
    DramCoord c;
    c.node = r.node;
    c.slot = r.slot;
    c.socket = 0;
    c.rank = 0;
    c.bank = r.bank;
    c.row = i;
    c.column = static_cast<ColumnId>(i % kColumnsPerRow);
    r.physical_address = EncodePhysicalAddress(c);
    records.push_back(r);
  }
  const PositionalCounts errors = TallyErrorPositions(records, 50);
  const auto error_uniformity = TestUniformity(errors);
  EXPECT_EQ(errors.per_socket[1], 0u);
  EXPECT_FALSE(error_uniformity.socket.ConsistentWithUniform());
  EXPECT_TRUE(error_uniformity.bank.ConsistentWithUniform());
}

}  // namespace
}  // namespace astra::core
