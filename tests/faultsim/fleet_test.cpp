#include "faultsim/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace astra::faultsim {
namespace {

CampaignConfig SmallCampaign(std::uint64_t seed = 7, int nodes = 200) {
  CampaignConfig config;
  config.SeedFrom(seed);
  config.node_count = nodes;
  return config;
}

class FleetTest : public ::testing::Test {
 protected:
  static const CampaignResult& Result() {
    static const CampaignResult result = FleetSimulator(SmallCampaign()).Run();
    return result;
  }
};

TEST_F(FleetTest, RecordsSortedByTime) {
  const auto& records = Result().memory_errors;
  ASSERT_FALSE(records.empty());
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].timestamp, records[i].timestamp);
  }
}

TEST_F(FleetTest, RecordsWithinWindowAndNodeRange) {
  const CampaignConfig config = SmallCampaign();
  for (const auto& r : Result().memory_errors) {
    EXPECT_TRUE(config.window.Contains(r.timestamp));
    EXPECT_GE(r.node, 0);
    EXPECT_LT(r.node, config.node_count);
    EXPECT_EQ(SocketOfSlot(r.slot), r.socket);
    EXPECT_EQ(r.row, logs::kNoRowInfo);  // Astra quirk: no row info
  }
}

TEST_F(FleetTest, CountsConsistent) {
  const auto& result = Result();
  std::uint64_t ces = 0, dues = 0;
  for (const auto& r : result.memory_errors) {
    (r.type == logs::FailureType::kUncorrectable ? dues : ces) += 1;
  }
  EXPECT_EQ(ces, result.total_ces);
  EXPECT_EQ(dues, result.total_dues);
  EXPECT_EQ(result.memory_errors.size(), ces + dues);
}

TEST_F(FleetTest, LoggedCountsConserveRecords) {
  const auto& result = Result();
  std::uint64_t attributed = 0;
  for (const auto& [id, count] : result.logged_count_by_fault) attributed += count;
  EXPECT_EQ(attributed, result.memory_errors.size());
}

TEST_F(FleetTest, HetOnlyAfterFirmwareUpdate) {
  const CampaignConfig config = SmallCampaign();
  for (const auto& het : Result().het_records) {
    EXPECT_GE(het.timestamp, config.het_firmware_start);
  }
}

TEST_F(FleetTest, HetContainsEveryPostFirmwareDue) {
  const auto& result = Result();
  std::uint64_t memory_dues_in_het = 0;
  for (const auto& het : result.het_records) {
    if (logs::IsMemoryDueEvent(het.event)) ++memory_dues_in_het;
  }
  EXPECT_EQ(memory_dues_in_het, result.dues_recorded_by_het);
  EXPECT_LE(result.dues_recorded_by_het, result.total_dues);
}

TEST_F(FleetTest, DueRecordsCarryVendorEncodedBit) {
  for (const auto& r : Result().memory_errors) {
    EXPECT_GE(r.bit_position, 0);
    EXPECT_LT(r.bit_position, 1 << 9);  // 7 true bits + 2 vendor bits
    const int true_bit = logs::TrueBitOfRecorded(r.bit_position);
    EXPECT_LT(true_bit, kCodeBitsPerWord);
  }
}

TEST_F(FleetTest, PhysicalAddressDecodesToRecordFields) {
  for (const auto& r : Result().memory_errors) {
    const DramCoord coord = DecodePhysicalAddress(r.node, r.physical_address);
    EXPECT_EQ(coord.slot, r.slot);
    EXPECT_EQ(coord.socket, r.socket);
    EXPECT_EQ(coord.rank, r.rank);
    EXPECT_EQ(coord.bank, r.bank);
  }

  // A platform that records rows (non-Astra condition): every record carries
  // the row its physical address decodes to.
  CampaignConfig with_rows = SmallCampaign(33, 100);
  with_rows.record_row_info = true;
  const CampaignResult result = FleetSimulator(with_rows).Run();
  ASSERT_FALSE(result.memory_errors.empty());
  for (const auto& r : result.memory_errors) {
    ASSERT_NE(r.row, logs::kNoRowInfo);
    EXPECT_EQ(DecodePhysicalAddress(r.node, r.physical_address).row, r.row);
  }
}

TEST_F(FleetTest, DeterministicAcrossRuns) {
  const CampaignResult again = FleetSimulator(SmallCampaign()).Run();
  const auto& result = Result();
  ASSERT_EQ(again.memory_errors.size(), result.memory_errors.size());
  ASSERT_EQ(again.faults.size(), result.faults.size());
  for (std::size_t i = 0; i < result.memory_errors.size(); i += 97) {
    EXPECT_EQ(again.memory_errors[i], result.memory_errors[i]);
  }
}

TEST_F(FleetTest, SeedChangesOutcome) {
  const CampaignResult other = FleetSimulator(SmallCampaign(/*seed=*/8)).Run();
  EXPECT_NE(other.memory_errors.size(), Result().memory_errors.size());
}

TEST_F(FleetTest, NodeCountScalesVolume) {
  const CampaignResult tiny = FleetSimulator(SmallCampaign(7, 20)).Run();
  EXPECT_LT(tiny.faults.size(), Result().faults.size());
  for (const auto& r : tiny.memory_errors) EXPECT_LT(r.node, 20);
}

TEST_F(FleetTest, SyndromesConsistentPerCoordinate) {
  // Identical failing coordinates must produce identical syndrome words
  // (the paper's "consistent encoding" observation).
  const auto& records = Result().memory_errors;
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records[i].physical_address == records[i - 1].physical_address &&
        records[i].node == records[i - 1].node &&
        records[i].bit_position == records[i - 1].bit_position) {
      EXPECT_EQ(records[i].syndrome, records[i - 1].syndrome);
    }
  }
}

TEST(FleetConfigTest, SeedFromPropagates) {
  CampaignConfig a, b;
  a.SeedFrom(1);
  b.SeedFrom(2);
  EXPECT_NE(a.fault_model.seed, b.fault_model.seed);
  EXPECT_NE(a.mitigation.retirement.seed, b.mitigation.retirement.seed);
}

TEST(FleetTimelineTest, MonthlyVolumeDeclines) {
  // Fig. 4a: slight downward trend.  Compare first vs last third of the
  // campaign, normalized per day, over a bigger fleet for stability.
  CampaignConfig config = SmallCampaign(21, 600);
  const CampaignResult result = FleetSimulator(config).Run();
  const std::int64_t third = config.window.DurationSeconds() / 3;
  std::uint64_t first = 0, last = 0;
  for (const auto& r : result.memory_errors) {
    const std::int64_t offset = SecondsBetween(config.window.begin, r.timestamp);
    if (offset < third) ++first;
    if (offset >= 2 * third) ++last;
  }
  // Error volume is fault-luck dominated; fault STARTS are the stable
  // signal.  Count faults starting in each third instead.
  std::uint64_t fault_first = 0, fault_last = 0;
  for (const auto& fault : result.faults) {
    const std::int64_t offset = SecondsBetween(config.window.begin, fault.start);
    if (offset < third) ++fault_first;
    if (offset >= 2 * third) ++fault_last;
  }
  EXPECT_GT(fault_first, fault_last);
}

}  // namespace
}  // namespace astra::faultsim
