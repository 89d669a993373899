#include "core/dataset.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace astra::core {
namespace {

class DatasetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "astra_dataset_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
    paths_ = DatasetPaths::InDirectory(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  DatasetPaths paths_;
};

TEST_F(DatasetTest, FailureDataRoundTrip) {
  faultsim::CampaignConfig config;
  config.SeedFrom(77);
  config.node_count = 120;
  const auto sim = faultsim::FleetSimulator(config).Run();
  ASSERT_TRUE(WriteFailureData(paths_, sim));

  // Raw(): the lenient default's dedup would drop same-second repeats.
  const auto loaded = IngestFailureData(paths_, logs::IngestPolicy::Raw());
  ASSERT_EQ(loaded.status, DatasetStatus::kOk);
  ASSERT_EQ(loaded.memory_errors.size(), sim.memory_errors.size());
  EXPECT_EQ(loaded.het_events.size(), sim.het_records.size());
  EXPECT_EQ(loaded.memory_report.stats.malformed, 0u);
  EXPECT_EQ(loaded.het_report.stats.malformed, 0u);
  // Spot-check exact record equality.
  for (std::size_t i = 0; i < sim.memory_errors.size(); i += 131) {
    EXPECT_EQ(loaded.memory_errors[i], sim.memory_errors[i]);
  }
}

TEST_F(DatasetTest, SensorDumpParsesBack) {
  const sensors::Environment env;
  const TimeWindow window{SimTime::FromCivil(2019, 5, 20),
                          SimTime::FromCivil(2019, 5, 21)};
  SensorDumpOptions options;
  options.stride_minutes = 120;
  ASSERT_TRUE(WriteSensorData(paths_, env, window, /*node_count=*/4, options));
  logs::IngestReport report;
  const auto records = logs::IngestAllRecords<logs::SensorRecord>(
      paths_.sensors, logs::IngestPolicy::Raw(), &report);
  ASSERT_TRUE(records.has_value());
  // 12 samples/day x 4 nodes x 7 sensors.
  EXPECT_EQ(records->size(), 12u * 4 * 7);
  EXPECT_EQ(report.stats.malformed, 0u);
  int missing = 0;
  for (const auto& r : *records) missing += !r.valid;
  EXPECT_LT(missing, 20);
}

TEST_F(DatasetTest, InventoryDumpDiffsToEvents) {
  auto config = replace::ReplacementSimConfig::AstraDefaults();
  config.node_count = 60;
  const replace::ReplacementSimulator simulator(config);
  const auto campaign = simulator.Run();
  ASSERT_TRUE(WriteInventoryData(paths_, simulator, campaign, /*stride_days=*/30));
  logs::IngestReport report;
  const auto records = logs::IngestAllRecords<logs::InventoryRecord>(
      paths_.inventory, logs::IngestPolicy::Raw(), &report);
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ(report.stats.malformed, 0u);
  // 8 snapshots (every 30 days over 212) x 60 nodes x 19 sites.
  EXPECT_EQ(records->size() % (60u * 19), 0u);
  EXPECT_GE(records->size() / (60u * 19), 7u);
}

TEST_F(DatasetTest, WriteToBadDirectoryFails) {
  const DatasetPaths bad = DatasetPaths::InDirectory("/no/such/dir");
  faultsim::CampaignConfig config;
  config.node_count = 1;
  const auto sim = faultsim::FleetSimulator(config).Run();
  EXPECT_FALSE(WriteFailureData(bad, sim));
}

TEST_F(DatasetTest, IngestFailureDataCleanDataset) {
  faultsim::CampaignConfig config;
  config.SeedFrom(77);
  config.node_count = 80;
  const auto sim = faultsim::FleetSimulator(config).Run();
  ASSERT_TRUE(WriteFailureData(paths_, sim));

  const auto ingest = IngestFailureData(paths_, logs::IngestPolicy{});
  EXPECT_EQ(ingest.status, DatasetStatus::kOk);
  // A burst can log byte-identical CE records within one second; line-level
  // dedup cannot tell those from collection duplicates, so it drops them —
  // counted, and reconcilable against the simulated ground truth.
  EXPECT_EQ(ingest.memory_errors.size() + ingest.memory_report.duplicates_removed,
            sim.memory_errors.size());
  EXPECT_LT(ingest.quality.DuplicateFraction(), 0.01);
  EXPECT_EQ(ingest.het_events.size() + ingest.het_report.duplicates_removed,
            sim.het_records.size());
  EXPECT_FALSE(ingest.het_missing);
  EXPECT_TRUE(ingest.memory_report.Consistent());
  EXPECT_TRUE(ingest.het_report.Consistent());
  // No damage beyond the disclosed dedup: nothing quarantined, no drift.
  EXPECT_EQ(ingest.quality.quarantined, 0u);
  EXPECT_FALSE(ingest.quality.header_remapped);
  EXPECT_FALSE(ingest.quality.over_budget);
  EXPECT_FALSE(ingest.quality.stream_missing);
}

TEST_F(DatasetTest, IngestRawPolicyPreservesEveryRecord) {
  faultsim::CampaignConfig config;
  config.SeedFrom(77);
  config.node_count = 80;
  const auto sim = faultsim::FleetSimulator(config).Run();
  ASSERT_TRUE(WriteFailureData(paths_, sim));

  const auto ingest = IngestFailureData(paths_, logs::IngestPolicy::Raw());
  EXPECT_EQ(ingest.status, DatasetStatus::kOk);
  EXPECT_EQ(ingest.memory_errors.size(), sim.memory_errors.size());
  EXPECT_EQ(ingest.het_events.size(), sim.het_records.size());
  EXPECT_FALSE(ingest.quality.Degraded());
}

TEST_F(DatasetTest, IngestFailureDataMissingPrimaryStream) {
  const auto ingest = IngestFailureData(paths_, logs::IngestPolicy{});
  EXPECT_EQ(ingest.status, DatasetStatus::kMissingPrimary);
  EXPECT_TRUE(ingest.memory_errors.empty());
}

TEST_F(DatasetTest, IngestFailureDataMissingHetDegrades) {
  faultsim::CampaignConfig config;
  config.SeedFrom(77);
  config.node_count = 40;
  const auto sim = faultsim::FleetSimulator(config).Run();
  ASSERT_TRUE(WriteFailureData(paths_, sim));
  std::filesystem::remove(paths_.het_events);

  const auto ingest = IngestFailureData(paths_, logs::IngestPolicy{});
  EXPECT_EQ(ingest.status, DatasetStatus::kOk);  // degrade, don't fail
  EXPECT_TRUE(ingest.het_missing);
  EXPECT_TRUE(ingest.quality.stream_missing);
  EXPECT_TRUE(ingest.quality.Degraded());
  EXPECT_FALSE(ingest.memory_errors.empty());
}

TEST_F(DatasetTest, IngestFailureDataStrictRejectsGarbage) {
  faultsim::CampaignConfig config;
  config.SeedFrom(77);
  config.node_count = 40;
  const auto sim = faultsim::FleetSimulator(config).Run();
  ASSERT_TRUE(WriteFailureData(paths_, sim));
  // Append enough garbage to blow a 5% malformed budget.
  {
    std::ofstream out(paths_.memory_errors, std::ios::app);
    for (std::size_t i = 0; i < sim.memory_errors.size() / 4 + 200; ++i) {
      out << "!!not a record!!\n";
    }
  }

  const auto strict = IngestFailureData(paths_, logs::IngestPolicy::Strict(0.05));
  EXPECT_EQ(strict.status, DatasetStatus::kRejected);

  const auto lenient = IngestFailureData(paths_, logs::IngestPolicy{});
  EXPECT_EQ(lenient.status, DatasetStatus::kOk);
  EXPECT_EQ(lenient.memory_errors.size() + lenient.memory_report.duplicates_removed,
            sim.memory_errors.size());
  EXPECT_TRUE(lenient.quality.over_budget);
  EXPECT_TRUE(lenient.quality.Degraded());
}

}  // namespace
}  // namespace astra::core
