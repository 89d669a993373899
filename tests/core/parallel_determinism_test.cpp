// Thread-count invariance of the parallel pipeline at the dataset level:
// ingest accounting, and the engine set's coalesced faults, positional
// tallies, monthly series and rendered report, must be identical at
// --threads=1 and --threads=8, on clean data and on injector-damaged data
// alike.  These tests deliberately use a record set large enough to clear
// every parallel gate (>= 2^15 records, > 64 KiB).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "core/coalesce.hpp"
#include "core/dataset.hpp"
#include "core/engine.hpp"
#include "core/report.hpp"
#include "faultsim/fleet.hpp"
#include "logs/corruption.hpp"
#include "logs/log_file.hpp"
#include "util/parallel.hpp"

namespace astra::core {
namespace {

const faultsim::CampaignResult& SmallCampaign() {
  static const faultsim::CampaignResult result = [] {
    faultsim::CampaignConfig config;
    config.SeedFrom(11);
    config.node_count = 64;
    return faultsim::FleetSimulator(config).Run();
  }();
  return result;
}

// Replicate the campaign's error stream with a per-replica time offset so
// the result stays sorted and large enough to engage the sharded analyses.
const std::vector<logs::MemoryErrorRecord>& BigRecordSet() {
  static const std::vector<logs::MemoryErrorRecord> records = [] {
    const auto& base = SmallCampaign().memory_errors;
    SimTime lo = base.front().timestamp, hi = lo;
    for (const auto& r : base) {
      lo = std::min(lo, r.timestamp);
      hi = std::max(hi, r.timestamp);
    }
    const std::int64_t stride = SecondsBetween(lo, hi) + 1;
    std::vector<logs::MemoryErrorRecord> out;
    constexpr std::size_t kTargetRecords = 1 << 16;
    for (std::int64_t rep = 0; out.size() < kTargetRecords; ++rep) {
      for (auto r : base) {
        r.timestamp = r.timestamp.AddSeconds(rep * stride);
        out.push_back(r);
      }
    }
    return out;
  }();
  return records;
}

void ExpectReportsEqual(const logs::IngestReport& a, const logs::IngestReport& b) {
  EXPECT_EQ(a.stats.total_lines, b.stats.total_lines);
  EXPECT_EQ(a.stats.parsed, b.stats.parsed);
  EXPECT_EQ(a.stats.malformed, b.stats.malformed);
  EXPECT_EQ(a.malformed_by_reason, b.malformed_by_reason);
  EXPECT_EQ(a.duplicates_removed, b.duplicates_removed);
  EXPECT_EQ(a.out_of_order_seen, b.out_of_order_seen);
  EXPECT_EQ(a.reordered, b.reordered);
  EXPECT_EQ(a.order_violations, b.order_violations);
  EXPECT_EQ(a.header_remapped, b.header_remapped);
  EXPECT_EQ(a.budget_exceeded, b.budget_exceeded);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.repairs, b.repairs);
}

void ExpectIngestsEqual(const DatasetIngest& a, const DatasetIngest& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.memory_errors, b.memory_errors);
  EXPECT_EQ(a.het_events, b.het_events);
  EXPECT_EQ(a.het_missing, b.het_missing);
  ExpectReportsEqual(a.memory_report, b.memory_report);
  ExpectReportsEqual(a.het_report, b.het_report);
  EXPECT_EQ(a.quality.Caveats(), b.quality.Caveats());
  EXPECT_EQ(a.quality.Degraded(), b.quality.Degraded());
}

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "astra_parallel_determinism_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    paths_ = DatasetPaths::InDirectory(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void WriteDataset() {
    logs::LogFileWriter<logs::MemoryErrorRecord> errors(paths_.memory_errors);
    for (const auto& r : BigRecordSet()) errors.Append(r);
    ASSERT_TRUE(errors.Finish());
    logs::LogFileWriter<logs::HetRecord> het(paths_.het_events);
    for (const auto& r : SmallCampaign().het_records) het.Append(r);
    ASSERT_TRUE(het.Finish());
  }

  std::string dir_;
  DatasetPaths paths_;
};

TEST_F(ParallelDeterminismTest, CleanDatasetIngestIsThreadInvariant) {
  WriteDataset();
  const logs::IngestPolicy policy;
  const auto serial = IngestFailureData(paths_, policy, 1);
  const auto parallel = IngestFailureData(paths_, policy, 8);
  ASSERT_EQ(serial.status, DatasetStatus::kOk);
  ExpectIngestsEqual(serial, parallel);
  EXPECT_FALSE(parallel.memory_errors.empty());
}

TEST_F(ParallelDeterminismTest, CorruptedDatasetIngestIsThreadInvariant) {
  WriteDataset();
  logs::CorruptionConfig config;
  config.seed = 9;
  config.SetAll(0.35);
  const logs::CorruptionInjector injector(config);
  ASSERT_TRUE(injector.CorruptDirectory(dir_).has_value());

  const logs::IngestPolicy lenient;
  ExpectIngestsEqual(IngestFailureData(paths_, lenient, 1),
                     IngestFailureData(paths_, lenient, 8));

  logs::IngestPolicy strict;
  strict.mode = logs::IngestPolicy::Mode::kStrict;
  strict.max_malformed_fraction = 0.01;
  ExpectIngestsEqual(IngestFailureData(paths_, strict, 1),
                     IngestFailureData(paths_, strict, 8));
}

void ExpectCoalesceEqual(const CoalesceResult& a, const CoalesceResult& b) {
  EXPECT_EQ(a.total_errors, b.total_errors);
  EXPECT_EQ(a.skipped_records, b.skipped_records);
  EXPECT_EQ(a.caveats, b.caveats);
  ASSERT_EQ(a.faults.size(), b.faults.size());
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    const auto& fa = a.faults[i];
    const auto& fb = b.faults[i];
    EXPECT_EQ(fa.node, fb.node) << "fault " << i;
    EXPECT_EQ(fa.socket, fb.socket) << "fault " << i;
    EXPECT_EQ(fa.slot, fb.slot) << "fault " << i;
    EXPECT_EQ(fa.rank, fb.rank) << "fault " << i;
    EXPECT_EQ(fa.bank, fb.bank) << "fault " << i;
    EXPECT_EQ(fa.mode, fb.mode) << "fault " << i;
    EXPECT_EQ(fa.error_count, fb.error_count) << "fault " << i;
    EXPECT_EQ(fa.distinct_addresses, fb.distinct_addresses) << "fault " << i;
    EXPECT_EQ(fa.distinct_columns, fb.distinct_columns) << "fault " << i;
    EXPECT_EQ(fa.distinct_bits, fb.distinct_bits) << "fault " << i;
    EXPECT_EQ(fa.distinct_rows, fb.distinct_rows) << "fault " << i;
    EXPECT_EQ(fa.first_seen, fb.first_seen) << "fault " << i;
    EXPECT_EQ(fa.last_seen, fb.last_seen) << "fault " << i;
    EXPECT_EQ(fa.anchor_address, fb.anchor_address) << "fault " << i;
    EXPECT_EQ(fa.anchor_bit, fb.anchor_bit) << "fault " << i;
    EXPECT_EQ(fa.monthly_errors, fb.monthly_errors) << "fault " << i;
  }
}

std::string RenderedReport(const AnalysisArtifacts& artifacts) {
  std::ostringstream out;
  RenderAnalysisReport(out, artifacts);
  return std::move(out).str();
}

// The engine-set path `analyze` runs, once serially and once as eight record
// shards reduced via MergeFrom; the tests below compare the two field for
// field, and so the report bytes.
struct SerialAndSharded {
  AnalysisArtifacts serial;
  AnalysisArtifacts sharded;
};

const SerialAndSharded& EngineSetAtOneAndEightThreads() {
  static const SerialAndSharded pair = [] {
    const auto& records = BigRecordSet();
    const auto& het = SmallCampaign().het_records;
    const TimeWindow window{records.front().timestamp,
                            records.back().timestamp.AddSeconds(1)};
    return SerialAndSharded{
        BuildAnalysisArtifacts(records, het, 64, window, window.begin, nullptr, 1),
        BuildAnalysisArtifacts(records, het, 64, window, window.begin, nullptr, 8)};
  }();
  return pair;
}

TEST(ParallelAnalysisTest, CoalesceIsThreadInvariant) {
  ASSERT_GE(BigRecordSet().size(), kParallelAnalysisMinItems);
  const auto& [serial, sharded] = EngineSetAtOneAndEightThreads();
  EXPECT_FALSE(serial.faults.faults.empty());
  ExpectCoalesceEqual(serial.faults, sharded.faults);
}

TEST(ParallelAnalysisTest, PositionalTalliesAreThreadInvariant) {
  ASSERT_GE(BigRecordSet().size(), kParallelAnalysisMinItems);
  const auto& [serial, sharded] = EngineSetAtOneAndEightThreads();
  const PositionalCounts& a = serial.positions.errors;
  const PositionalCounts& b = sharded.positions.errors;
  EXPECT_EQ(a.Total(), b.Total());
  EXPECT_EQ(a.per_socket, b.per_socket);
  EXPECT_EQ(a.per_bank, b.per_bank);
  EXPECT_EQ(a.per_rank, b.per_rank);
  EXPECT_EQ(a.per_slot, b.per_slot);
  EXPECT_EQ(a.per_rack, b.per_rack);
  EXPECT_EQ(a.per_region, b.per_region);
  EXPECT_EQ(a.per_column_bucket, b.per_column_bucket);
  EXPECT_EQ(a.per_rack_region, b.per_rack_region);
  EXPECT_EQ(a.per_node, b.per_node);
  EXPECT_EQ(a.per_bit_position, b.per_bit_position);
  EXPECT_EQ(a.per_address, b.per_address);
  EXPECT_EQ(serial.positions.nodes_with_errors, sharded.positions.nodes_with_errors);
}

TEST(ParallelAnalysisTest, MonthlySeriesIsThreadInvariant) {
  ASSERT_GE(BigRecordSet().size(), kParallelAnalysisMinItems);
  const auto& [serial, sharded] = EngineSetAtOneAndEightThreads();
  EXPECT_EQ(serial.series.all_errors, sharded.series.all_errors);
  for (std::size_t m = 0; m < serial.series.by_mode.size(); ++m) {
    EXPECT_EQ(serial.series.by_mode[m], sharded.series.by_mode[m]) << "mode " << m;
  }
  EXPECT_GT(std::count_if(serial.series.all_errors.begin(),
                          serial.series.all_errors.end(),
                          [](std::uint64_t v) { return v > 0; }),
            0);
}

TEST(ParallelAnalysisTest, RenderedReportIsThreadInvariant) {
  ASSERT_GE(BigRecordSet().size(), kParallelAnalysisMinItems);
  const auto& [serial, sharded] = EngineSetAtOneAndEightThreads();
  EXPECT_EQ(RenderedReport(serial), RenderedReport(sharded));
}

}  // namespace
}  // namespace astra::core
