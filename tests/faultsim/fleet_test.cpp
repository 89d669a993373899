#include "faultsim/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

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
  // Time order, and node order within a second: the fleet stream merges
  // the nodes' time-ordered runs in node order.
  const auto& records = Result().memory_errors;
  ASSERT_FALSE(records.empty());
  for (std::size_t i = 1; i < records.size(); ++i) {
    ASSERT_LE(std::tie(records[i - 1].timestamp, records[i - 1].node),
              std::tie(records[i].timestamp, records[i].node))
        << "record " << i;
  }
}

TEST(FleetOrderTest, NodeRecordsAreItsDrawsStableSortedByTime) {
  // With no mitigation and no log buffer, a node logs every visible draw.
  // Its records are its faults' draws, concatenated in fault-id order and
  // stable-sorted by time: same-second draws keep (fault id, draw index)
  // order.
  constexpr NodeId kNode = 4;
  CampaignConfig config = SmallCampaign(/*seed=*/4, kNode + 1);
  config.mitigation = MitigationPolicy::None();
  config.log_buffer.enabled = false;
  const FleetSimulator simulator(config);
  const CampaignResult result = simulator.Run(1);

  std::vector<ErrorEvent> draws;
  for (const Fault& fault : simulator.Injector().GenerateNodeFaults(kNode)) {
    for (const ErrorEvent& event : simulator.Injector().GenerateErrorEvents(fault)) {
      if (event.outcome != ecc::ErrorOutcome::kClean && !event.IsSilent()) {
        draws.push_back(event);
      }
    }
  }
  std::stable_sort(draws.begin(), draws.end(),
                   [](const ErrorEvent& a, const ErrorEvent& b) { return a.time < b.time; });

  std::vector<logs::MemoryErrorRecord> records;
  for (const auto& r : result.memory_errors) {
    if (r.node == kNode) records.push_back(r);
  }
  ASSERT_EQ(records.size(), draws.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    DramCoord coord = DecodePhysicalAddress(kNode, records[i].physical_address);
    coord.bit = static_cast<BitPosition>(logs::TrueBitOfRecorded(records[i].bit_position));
    ASSERT_EQ(records[i].timestamp, draws[i].time) << "record " << i;
    ASSERT_EQ(coord, draws[i].coord) << "record " << i;
    ASSERT_EQ(records[i].type == logs::FailureType::kUncorrectable, draws[i].IsDue())
        << "record " << i;
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
  // Every stream, in full, at 1, 4 and 8 threads.
  const auto fault_fields = [](const CampaignResult& result) {
    std::vector<std::tuple<std::uint64_t, GroundTruthMode, DramCoord, SimTime, double,
                           std::uint64_t, bool, int, int, double>>
        fields;
    for (const Fault& f : result.faults) {
      fields.emplace_back(f.id, f.mode, f.anchor, f.start, f.lifetime_days, f.error_count,
                          f.multibit_capable, f.stuck_bit_count, f.vendor_code,
                          f.susceptibility);
    }
    return fields;
  };
  const FleetSimulator simulator(SmallCampaign());
  const CampaignResult serial = simulator.Run(1);
  for (const unsigned threads : {4u, 8u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const CampaignResult parallel = simulator.Run(threads);
    EXPECT_TRUE(parallel.memory_errors == serial.memory_errors);
    EXPECT_TRUE(parallel.het_records == serial.het_records);
    EXPECT_TRUE(fault_fields(parallel) == fault_fields(serial));
  }
  EXPECT_TRUE(serial.memory_errors == Result().memory_errors);
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
