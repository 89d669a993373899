#include "core/coalesce.hpp"

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "faultsim/fleet.hpp"

namespace astra::core {
namespace {

using faultsim::GroundTruthMode;
using faultsim::ObservedMode;

// Build a CE record at an explicit DRAM coordinate.
logs::MemoryErrorRecord Record(NodeId node, DimmSlot slot, RankId rank, BankId bank,
                               RowId row, ColumnId column, int bit,
                               int minute_offset = 0) {
  logs::MemoryErrorRecord r;
  r.timestamp = SimTime::FromCivil(2019, 3, 1).AddMinutes(minute_offset);
  r.node = node;
  r.slot = slot;
  r.socket = SocketOfSlot(slot);
  r.rank = rank;
  r.bank = bank;
  r.row = logs::kNoRowInfo;
  r.bit_position = bit;
  DramCoord coord;
  coord.node = node;
  coord.slot = slot;
  coord.socket = r.socket;
  coord.rank = rank;
  coord.bank = bank;
  coord.row = row;
  coord.column = column;
  r.physical_address = EncodePhysicalAddress(coord);
  r.syndrome = 1;
  return r;
}

TEST(CoalesceTest, SingleErrorIsSingleBitFault) {
  const std::vector<logs::MemoryErrorRecord> records = {
      Record(1, DimmSlot::B, 0, 2, 100, 7, 5)};
  const CoalesceResult result = FaultCoalescer::Coalesce(records);
  ASSERT_EQ(result.faults.size(), 1u);
  EXPECT_EQ(result.faults[0].mode, ObservedMode::kSingleBit);
  EXPECT_EQ(result.faults[0].error_count, 1u);
  EXPECT_EQ(result.total_errors, 1u);
}

TEST(CoalesceTest, RepeatedSameCellIsSingleBit) {
  std::vector<logs::MemoryErrorRecord> records;
  for (int i = 0; i < 50; ++i) {
    records.push_back(Record(1, DimmSlot::B, 0, 2, 100, 7, 5, i));
  }
  const CoalesceResult result = FaultCoalescer::Coalesce(records);
  ASSERT_EQ(result.faults.size(), 1u);
  EXPECT_EQ(result.faults[0].mode, ObservedMode::kSingleBit);
  EXPECT_EQ(result.faults[0].error_count, 50u);
  EXPECT_EQ(result.faults[0].distinct_addresses, 1u);
}

TEST(CoalesceTest, SameWordDifferentBitsIsSingleWord) {
  std::vector<logs::MemoryErrorRecord> records;
  for (int i = 0; i < 30; ++i) {
    records.push_back(Record(1, DimmSlot::B, 0, 2, 100, 7, i % 2 ? 5 : 41, i));
  }
  const CoalesceResult result = FaultCoalescer::Coalesce(records);
  ASSERT_EQ(result.faults.size(), 1u);
  EXPECT_EQ(result.faults[0].mode, ObservedMode::kSingleWord);
  EXPECT_EQ(result.faults[0].distinct_bits, 2u);
}

TEST(CoalesceTest, SameColumnManyRowsIsSingleColumn) {
  std::vector<logs::MemoryErrorRecord> records;
  for (int i = 0; i < 40; ++i) {
    records.push_back(Record(1, DimmSlot::B, 0, 2, /*row=*/i * 31, /*col=*/7, 5, i));
  }
  const CoalesceResult result = FaultCoalescer::Coalesce(records);
  ASSERT_EQ(result.faults.size(), 1u);
  EXPECT_EQ(result.faults[0].mode, ObservedMode::kSingleColumn);
  EXPECT_EQ(result.faults[0].distinct_columns, 1u);
  EXPECT_GT(result.faults[0].distinct_addresses, 1u);
}

TEST(CoalesceTest, ManyColumnsOneBitIsRowLike) {
  std::vector<logs::MemoryErrorRecord> records;
  for (int i = 0; i < 40; ++i) {
    records.push_back(Record(1, DimmSlot::B, 0, 2, /*row=*/55, /*col=*/i * 3, 5, i));
  }
  const CoalesceResult result = FaultCoalescer::Coalesce(records);
  ASSERT_EQ(result.faults.size(), 1u);
  EXPECT_EQ(result.faults[0].mode, ObservedMode::kUnattributedRowLike);
}

TEST(CoalesceTest, ScatteredBankPatternIsSingleBank) {
  std::vector<logs::MemoryErrorRecord> records;
  for (int i = 0; i < 60; ++i) {
    records.push_back(
        Record(1, DimmSlot::B, 0, 2, /*row=*/i * 7, /*col=*/i * 5, /*bit=*/i % 72, i));
  }
  const CoalesceResult result = FaultCoalescer::Coalesce(records);
  ASSERT_EQ(result.faults.size(), 1u);
  EXPECT_EQ(result.faults[0].mode, ObservedMode::kSingleBank);
}

TEST(CoalesceTest, TwoCellCollisionDecomposes) {
  // Two unrelated cell faults in the same bank: the naive classifier would
  // call this "single-bank"; the decomposition step must split them.
  std::vector<logs::MemoryErrorRecord> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back(Record(1, DimmSlot::B, 0, 2, 100, 7, 5, i));
    records.push_back(Record(1, DimmSlot::B, 0, 2, 900, 80, 33, i));
  }
  const CoalesceResult result = FaultCoalescer::Coalesce(records);
  ASSERT_EQ(result.faults.size(), 2u);
  EXPECT_EQ(result.faults[0].mode, ObservedMode::kSingleBit);
  EXPECT_EQ(result.faults[1].mode, ObservedMode::kSingleBit);
  EXPECT_EQ(result.faults[0].error_count, 10u);
  EXPECT_EQ(result.faults[1].error_count, 10u);
}

TEST(CoalesceTest, DominantPatternAbsorbsSmallCollision) {
  // A prolific row-like fault plus a 2-error cell fault in the same bank:
  // dominance classification must still call the group row-like.
  std::vector<logs::MemoryErrorRecord> records;
  for (int i = 0; i < 500; ++i) {
    records.push_back(
        Record(1, DimmSlot::B, 0, 2, 55, static_cast<ColumnId>(i % 300), 5, i));
  }
  records.push_back(Record(1, DimmSlot::B, 0, 2, 999, 17, 44, 600));
  records.push_back(Record(1, DimmSlot::B, 0, 2, 999, 17, 44, 601));
  const CoalesceResult result = FaultCoalescer::Coalesce(records);
  ASSERT_EQ(result.faults.size(), 1u);
  EXPECT_EQ(result.faults[0].mode, ObservedMode::kUnattributedRowLike);
  EXPECT_EQ(result.faults[0].error_count, 502u);
}

TEST(CoalesceTest, DifferentBanksAreDifferentFaults) {
  const std::vector<logs::MemoryErrorRecord> records = {
      Record(1, DimmSlot::B, 0, 2, 100, 7, 5),
      Record(1, DimmSlot::B, 0, 3, 100, 7, 5),
      Record(1, DimmSlot::B, 1, 2, 100, 7, 5),
      Record(1, DimmSlot::C, 0, 2, 100, 7, 5),
      Record(2, DimmSlot::B, 0, 2, 100, 7, 5),
  };
  const CoalesceResult result = FaultCoalescer::Coalesce(records);
  EXPECT_EQ(result.faults.size(), 5u);
}

TEST(CoalesceTest, DueRecordsSkippedByDefault) {
  std::vector<logs::MemoryErrorRecord> records = {Record(1, DimmSlot::B, 0, 2, 1, 1, 1)};
  records.push_back(records[0]);
  records[1].type = logs::FailureType::kUncorrectable;
  const CoalesceResult result = FaultCoalescer::Coalesce(records);
  EXPECT_EQ(result.total_errors, 1u);
  EXPECT_EQ(result.skipped_records, 1u);
}

TEST(CoalesceTest, ErrorsPerFaultAndModeTallies) {
  std::vector<logs::MemoryErrorRecord> records;
  for (int i = 0; i < 5; ++i) {
    records.push_back(Record(1, DimmSlot::B, 0, 2, 1, 1, 1, i));
  }
  records.push_back(Record(1, DimmSlot::C, 0, 2, 1, 1, 1));
  const CoalesceResult result = FaultCoalescer::Coalesce(records);
  const auto counts = result.ErrorsPerFault();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0] + counts[1], 6u);
  EXPECT_EQ(result.FaultsOfMode(ObservedMode::kSingleBit), 2u);
  EXPECT_EQ(result.ErrorsOfMode(ObservedMode::kSingleBit), 6u);
  EXPECT_EQ(result.ErrorsOfMode(ObservedMode::kSingleBank), 0u);
}

TEST(CoalesceTest, IncrementalAddMatchesOneShot) {
  std::vector<logs::MemoryErrorRecord> records;
  for (int i = 0; i < 20; ++i) {
    records.push_back(Record(1, DimmSlot::B, 0, static_cast<BankId>(i % 4), i * 3,
                             static_cast<ColumnId>(i % 9), i % 72, i));
  }
  FaultCoalescer incremental;
  for (const auto& r : records) incremental.Add(r);
  const CoalesceResult a = incremental.Finalize();
  const CoalesceResult b = FaultCoalescer::Coalesce(records);
  ASSERT_EQ(a.faults.size(), b.faults.size());
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].mode, b.faults[i].mode);
    EXPECT_EQ(a.faults[i].error_count, b.faults[i].error_count);
  }
}

// Three bank groups whose dominant address (bank 1), column (bank 2) and bit
// (bank 3) reach the dominance share only once two shards merge: each shard
// holds half of the dominant pattern, the later one also two strays.  A
// merged coalescer, and one restored from its snapshot, must count the
// pattern's merged total to classify each group as the serial pass does.
TEST(CoalesceTest, DominanceFormedByAMergeSurvivesSnapshotAndRestore) {
  std::vector<logs::MemoryErrorRecord> earlier;
  std::vector<logs::MemoryErrorRecord> later;
  int minute = 0;
  for (auto* shard : {&earlier, &later}) {
    const int base = shard == &earlier ? 0 : 10;
    for (int i = base; i < base + 10; ++i) {
      shard->push_back(Record(1, DimmSlot::B, 0, 1, 100, 7, 5, minute++));
      shard->push_back(Record(1, DimmSlot::B, 0, 2, i, 7, 5, minute++));
      shard->push_back(
          Record(1, DimmSlot::B, 0, 3, 55, static_cast<ColumnId>(i), 5, minute++));
    }
  }
  for (int stray = 0; stray < 2; ++stray) {
    const auto column = static_cast<ColumnId>(40 + stray);
    later.push_back(Record(1, DimmSlot::B, 0, 1, 300 + stray, column, 5, minute++));
    later.push_back(Record(1, DimmSlot::B, 0, 2, 50 + stray, column, 5, minute++));
    later.push_back(Record(1, DimmSlot::B, 0, 3, 55, column, 30 + stray, minute++));
  }

  std::vector<logs::MemoryErrorRecord> serial = earlier;
  serial.insert(serial.end(), later.begin(), later.end());
  const CoalesceResult expected = FaultCoalescer::Coalesce(serial);
  ASSERT_EQ(expected.faults.size(), 3u);
  EXPECT_EQ(expected.faults[0].mode, ObservedMode::kSingleBit);
  EXPECT_EQ(expected.faults[1].mode, ObservedMode::kSingleColumn);
  EXPECT_EQ(expected.faults[2].mode, ObservedMode::kUnattributedRowLike);

  FaultCoalescer merged;
  FaultCoalescer second;
  for (const auto& r : earlier) merged.Add(r);
  for (const auto& r : later) second.Add(r);
  ASSERT_TRUE(merged.MergeFrom(second));
  std::string saved;
  binio::Writer writer(saved);
  merged.Snapshot(writer);
  FaultCoalescer restored;
  binio::Reader reader{std::string_view(saved)};
  ASSERT_TRUE(restored.Restore(reader));

  for (const CoalesceResult& result : {merged.Finalize(), restored.Finalize()}) {
    ASSERT_EQ(result.faults.size(), expected.faults.size());
    for (std::size_t i = 0; i < result.faults.size(); ++i) {
      const CoalescedFault& got = result.faults[i];
      const CoalescedFault& want = expected.faults[i];
      EXPECT_EQ(got.mode, want.mode) << "bank " << got.bank;
      EXPECT_EQ(got.error_count, want.error_count);
      EXPECT_EQ(got.distinct_addresses, want.distinct_addresses);
      EXPECT_EQ(got.distinct_columns, want.distinct_columns);
      EXPECT_EQ(got.distinct_bits, want.distinct_bits);
      EXPECT_EQ(got.anchor_address, want.anchor_address);
      EXPECT_EQ(got.anchor_bit, want.anchor_bit);
    }
  }
}

// Ground-truth validation: classify a simulated campaign and compare against
// the injected fault modes where no bank collision interferes.
TEST(CoalesceGroundTruthTest, MatchesInjectedModes) {
  faultsim::CampaignConfig config;
  config.SeedFrom(99);
  config.node_count = 400;
  const faultsim::CampaignResult sim = faultsim::FleetSimulator(config).Run();
  const CoalesceResult observed = FaultCoalescer::Coalesce(sim.memory_errors);

  // Index ground-truth faults by bank group, keeping only groups hosting
  // exactly ONE injected fault (no collision).
  std::map<std::tuple<NodeId, int, int, int>, std::vector<const faultsim::Fault*>>
      truth_by_group;
  for (const auto& fault : sim.faults) {
    truth_by_group[{fault.anchor.node, static_cast<int>(fault.anchor.slot),
                    fault.anchor.rank, fault.anchor.bank}]
        .push_back(&fault);
  }

  std::size_t comparable = 0, matched = 0;
  for (const auto& fault : observed.faults) {
    const auto it = truth_by_group.find(
        {fault.node, static_cast<int>(fault.slot), fault.rank, fault.bank});
    if (it == truth_by_group.end() || it->second.size() != 1) continue;
    const faultsim::Fault& truth = *it->second.front();
    if (fault.error_count < 2) continue;  // single observation: mode unknowable
    ++comparable;
    const ObservedMode expected = faultsim::ExpectedObservation(
        truth.mode, /*multi_row_seen=*/fault.distinct_addresses > 1);
    // A large-footprint fault whose few errors happen to hit one address
    // degenerates legitimately; accept the degenerate observation too.
    const bool degenerate_ok = fault.distinct_addresses == 1 &&
                               (fault.mode == ObservedMode::kSingleBit ||
                                fault.mode == ObservedMode::kSingleWord);
    if (fault.mode == expected || degenerate_ok) ++matched;
  }
  ASSERT_GT(comparable, 100u);
  EXPECT_GT(static_cast<double>(matched) / static_cast<double>(comparable), 0.95);
}

TEST(CoalesceGroundTruthTest, ErrorConservation) {
  faultsim::CampaignConfig config;
  config.SeedFrom(5);
  config.node_count = 150;
  const faultsim::CampaignResult sim = faultsim::FleetSimulator(config).Run();
  const CoalesceResult observed = FaultCoalescer::Coalesce(sim.memory_errors);
  std::uint64_t total = 0;
  for (const auto& fault : observed.faults) total += fault.error_count;
  EXPECT_EQ(total, observed.total_errors);
  EXPECT_EQ(observed.total_errors + observed.skipped_records,
            sim.memory_errors.size());
}

}  // namespace
}  // namespace astra::core
