// The serve determinism suite: the fleet report merged from K node streams
// is byte-identical to the report over the concatenated logs for K in
// {1, 4, 36}, rack views match rack-filtered analysis, config mismatches
// are refused, and a mid-serve checkpoint/restore lands on the same bytes.
#include "serve/merge_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "faultsim/fleet.hpp"
#include "serve/fleet_dataset.hpp"
#include "serve/topology.hpp"
#include "stream/checkpoint.hpp"
#include "stream/monitor.hpp"

namespace astra::serve {
namespace {

// One deterministic 36-node campaign shared by every test in the suite.
const faultsim::CampaignResult& Campaign() {
  static const faultsim::CampaignResult result = [] {
    faultsim::CampaignConfig config;
    config.seed = 20220622;
    config.node_count = 36;
    config.SeedFrom(config.seed);
    return faultsim::FleetSimulator(config).Run();
  }();
  return result;
}

// The shared campaign with one record of each of two nodes re-emitted
// verbatim.  The nodes differ mod 4 (hence mod 36), so at K = 4 and K = 36
// the duplicates are dropped in two different node streams.
const faultsim::CampaignResult& CampaignWithDuplicates() {
  static const faultsim::CampaignResult result = [] {
    faultsim::CampaignResult copy = Campaign();
    auto& records = copy.memory_errors;
    const auto other = std::find_if(records.begin(), records.end(), [&](const auto& r) {
      return r.node % 4 != records.front().node % 4;
    });
    const auto second = static_cast<std::size_t>(other - records.begin());
    records.insert(records.begin() + static_cast<std::ptrdiff_t>(second) + 1,
                   records[second]);
    records.insert(records.begin() + 1, records.front());
    return copy;
  }();
  return result;
}

stream::MonitorConfig TestMonitorConfig() {
  stream::MonitorConfig config;
  config.alerts.window_seconds = 3600;
  config.alerts.fleet_ce_threshold = 4;
  config.alerts.node_ce_threshold = 2;
  return config;
}

core::EngineSetConfig TestEngineConfig() {
  core::EngineSetConfig config;
  config.predictor = TestMonitorConfig().predictor;
  return config;
}

// Finish one monitor per node directory under `root` and sample each.
std::vector<NodeSample> DrainFleet(const std::string& root, int nodes,
                                   const stream::MonitorConfig& config) {
  std::vector<NodeSample> samples;
  samples.reserve(static_cast<std::size_t>(nodes));
  for (int node = 0; node < nodes; ++node) {
    stream::StreamMonitor monitor(
        core::DatasetPaths::InDirectory(NodeDir(root, node)), config);
    EXPECT_NE(monitor.Finish(), stream::MonitorStatus::kMissingPrimary);
    samples.push_back(SampleMonitor(monitor));
  }
  return samples;
}

std::string RenderSamples(std::vector<NodeSample> samples,
                          const stream::MonitorConfig& config) {
  const auto view =
      MergeSamples(TestEngineConfig(), config.alerts, samples);
  EXPECT_TRUE(view.has_value());
  if (!view) return {};
  std::ostringstream out;
  RenderMergedReport(out, config.policy, *view);
  return out.str();
}

class MergeTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "astra_merge_tree_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  // The parity oracle: everything in one stream (K = 1).
  [[nodiscard]] std::string CombinedReport(
      const faultsim::CampaignResult& result,
      const stream::MonitorConfig& config) {
    const std::string dir = root_ + "/combined";
    EXPECT_TRUE(WriteCombinedDataset(result, dir));
    stream::StreamMonitor monitor(core::DatasetPaths::InDirectory(dir),
                                  config);
    EXPECT_NE(monitor.Finish(), stream::MonitorStatus::kMissingPrimary);
    std::vector<NodeSample> sample;
    sample.push_back(SampleMonitor(monitor));
    return RenderSamples(std::move(sample), config);
  }

  std::string root_;
};

TEST_F(MergeTreeTest, FleetReportIsByteIdenticalForOneFourAndThirtySixStreams) {
  const auto config = TestMonitorConfig();
  // The second campaign drops duplicates in two node streams: the merged
  // repair log must sum them into the one line the combined stream prints.
  for (const bool duplicates : {false, true}) {
    const auto& campaign = duplicates ? CampaignWithDuplicates() : Campaign();
    const std::string oracle = CombinedReport(campaign, config);
    ASSERT_FALSE(oracle.empty());
    ASSERT_NE(oracle.find("ingest"), std::string::npos) << oracle;
    if (duplicates) {
      ASSERT_NE(oracle.find("repair: dropped"), std::string::npos) << oracle;
    }

    const std::vector<ServeTopology> shapes = {{1, 1}, {2, 2}, {6, 6}};
    for (const auto& topology : shapes) {
      const std::string fleet_root = root_ + (duplicates ? "/dup-k" : "/k") +
                                     std::to_string(topology.NodeCount());
      ASSERT_TRUE(WriteFleetDataset(campaign, fleet_root, topology));
      const std::string merged = RenderSamples(
          DrainFleet(fleet_root, topology.NodeCount(), config), config);
      EXPECT_EQ(merged, oracle)
          << "K=" << topology.NodeCount() << " duplicates=" << duplicates;
    }
  }
}

TEST_F(MergeTreeTest, RackViewMatchesRackFilteredAnalysis) {
  const auto config = TestMonitorConfig();
  const ServeTopology topology{6, 6};
  const std::string fleet_root = root_ + "/fleet";
  ASSERT_TRUE(WriteFleetDataset(Campaign(), fleet_root, topology));
  auto samples = DrainFleet(fleet_root, topology.NodeCount(), config);

  for (const int rack : {0, 3, 5}) {
    std::vector<NodeSample> rack_samples(
        samples.begin() + topology.RackBegin(rack),
        samples.begin() + topology.RackBegin(rack) + topology.nodes_per_rack);
    const std::string merged = RenderSamples(std::move(rack_samples), config);

    // Oracle: the campaign filtered to this rack's node ids, one stream.
    faultsim::CampaignResult filtered;
    for (const auto& record : Campaign().memory_errors) {
      const int index = static_cast<int>(record.node) % topology.NodeCount();
      if (topology.RackOf(index) == rack) filtered.memory_errors.push_back(record);
    }
    for (const auto& record : Campaign().het_records) {
      const int index = static_cast<int>(record.node) % topology.NodeCount();
      if (topology.RackOf(index) == rack) filtered.het_records.push_back(record);
    }
    const std::string sub_root = root_ + "/rack" + std::to_string(rack);
    std::filesystem::create_directories(sub_root);
    EXPECT_TRUE(WriteCombinedDataset(filtered, sub_root + "/combined"));
    stream::StreamMonitor oracle_monitor(
        core::DatasetPaths::InDirectory(sub_root + "/combined"), config);
    EXPECT_NE(oracle_monitor.Finish(), stream::MonitorStatus::kMissingPrimary);
    std::vector<NodeSample> oracle_sample;
    oracle_sample.push_back(SampleMonitor(oracle_monitor));
    EXPECT_EQ(merged, RenderSamples(std::move(oracle_sample), config))
        << "rack " << rack;
  }
}

TEST_F(MergeTreeTest, ConfigMismatchesAreRefusedNotMisreported) {
  const auto config = TestMonitorConfig();
  const ServeTopology topology{2, 2};
  const std::string fleet_root = root_ + "/fleet";
  ASSERT_TRUE(WriteFleetDataset(Campaign(), fleet_root, topology));
  const auto samples = DrainFleet(fleet_root, topology.NodeCount(), config);

  stream::AlertConfig other_alerts = config.alerts;
  other_alerts.fleet_ce_threshold += 1;
  EXPECT_FALSE(MergeSamples(TestEngineConfig(), other_alerts, samples)
                   .has_value());

  core::EngineSetConfig other_engines = TestEngineConfig();
  other_engines.predictor.ce_count_threshold += 1;
  EXPECT_FALSE(
      MergeSamples(other_engines, config.alerts, samples).has_value());
}

TEST_F(MergeTreeTest, MidServeCheckpointRestoreLandsOnTheSameBytes) {
  const auto config = TestMonitorConfig();
  const ServeTopology topology{2, 2};
  const std::string fleet_root = root_ + "/fleet";
  const std::string ckp_dir = root_ + "/ckp";
  ASSERT_TRUE(WriteFleetDataset(Campaign(), fleet_root, topology));
  std::filesystem::create_directories(ckp_dir);

  // Poll (not Finish): the reorder window keeps the newest records pending
  // inside each reader, so the checkpoint captures genuinely mid-stream
  // state — cursors, pending heaps, engines, alert latches.
  std::vector<std::unique_ptr<stream::StreamMonitor>> live;
  for (int node = 0; node < topology.NodeCount(); ++node) {
    live.push_back(std::make_unique<stream::StreamMonitor>(
        core::DatasetPaths::InDirectory(NodeDir(fleet_root, node)), config));
    EXPECT_NE(live.back()->Poll(), stream::MonitorStatus::kMissingPrimary);
    const std::string path = ckp_dir + "/" + NodeDirName(node) + ".ckp";
    ASSERT_EQ(stream::SaveMonitorCheckpoint(*live.back(), path),
              stream::CheckpointStatus::kOk);
  }

  std::vector<NodeSample> restored_samples;
  for (int node = 0; node < topology.NodeCount(); ++node) {
    stream::StreamMonitor restored(
        core::DatasetPaths::InDirectory(NodeDir(fleet_root, node)), config);
    ASSERT_EQ(stream::RestoreMonitorCheckpoint(
                  restored, ckp_dir + "/" + NodeDirName(node) + ".ckp"),
              stream::CheckpointStatus::kOk);
    EXPECT_NE(restored.Finish(), stream::MonitorStatus::kMissingPrimary);
    restored_samples.push_back(SampleMonitor(restored));
  }
  const std::string restored_report =
      RenderSamples(std::move(restored_samples), config);

  std::vector<NodeSample> live_samples;
  for (auto& monitor : live) {
    EXPECT_NE(monitor->Finish(), stream::MonitorStatus::kMissingPrimary);
    live_samples.push_back(SampleMonitor(*monitor));
  }
  EXPECT_EQ(restored_report, RenderSamples(std::move(live_samples), config));
  EXPECT_EQ(restored_report, CombinedReport(Campaign(), config));
}

}  // namespace
}  // namespace astra::serve
