// End-to-end integration: simulate a campaign, write the dataset to disk in
// the §2.4 release format, read it back, run the full analysis suite, and
// check every headline qualitative claim of the paper against the pipeline
// output — the whole toolkit exercised through its public API only.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "core/coalesce.hpp"
#include "core/dataset.hpp"
#include "core/positional.hpp"
#include "core/temperature.hpp"
#include "core/temporal.hpp"
#include "core/uncorrectable.hpp"
#include "stats/descriptive.hpp"

namespace astra {
namespace {

class CampaignIntegrationTest : public ::testing::Test {
 protected:
  struct Pipeline {
    faultsim::CampaignConfig config;
    faultsim::CampaignResult sim;
    core::DatasetIngest loaded;
    core::CoalesceResult coalesced;
    core::PositionalAnalysis positions;
    std::string dir;
  };

  static const Pipeline& Run() {
    static const Pipeline pipeline = [] {
      Pipeline p;
      // Per-process directory: ctest runs each test of this suite as its own
      // process, and a shared path lets one process rewrite the dataset
      // while another still has it mmapped (SIGBUS under ctest -jN).
      p.dir = ::testing::TempDir() + "astra_integration_" +
              std::to_string(::getpid());
      std::filesystem::create_directories(p.dir);
      p.config.SeedFrom(20190120);
      p.config.node_count = 800;
      p.sim = faultsim::FleetSimulator(p.config).Run();

      const auto paths = core::DatasetPaths::InDirectory(p.dir);
      if (!core::WriteFailureData(paths, p.sim)) ADD_FAILURE() << "write failed";
      // Raw(): the lenient default's dedup would drop same-second repeats.
      p.loaded = core::IngestFailureData(paths, logs::IngestPolicy::Raw());
      if (p.loaded.status != core::DatasetStatus::kOk) ADD_FAILURE() << "read failed";
      // The records are in memory now; a ~100 MB dataset left behind per
      // process fills the temp directory over repeated runs.
      std::filesystem::remove_all(p.dir);

      core::CoalesceOptions options;
      options.month_count = 9;
      options.series_origin = p.config.window.begin;
      p.coalesced = core::FaultCoalescer::Coalesce(p.loaded.memory_errors, options);
      p.positions = core::AnalyzePositions(p.coalesced, p.config.node_count);
      return p;
    }();
    return pipeline;
  }
};

TEST_F(CampaignIntegrationTest, DiskRoundTripIsLossless) {
  const auto& p = Run();
  ASSERT_EQ(p.loaded.memory_errors.size(), p.sim.memory_errors.size());
  EXPECT_EQ(p.loaded.memory_report.stats.malformed, 0u);
  for (std::size_t i = 0; i < p.sim.memory_errors.size(); i += 499) {
    EXPECT_EQ(p.loaded.memory_errors[i], p.sim.memory_errors[i]);
  }
}

TEST_F(CampaignIntegrationTest, HeadlineVolumes) {
  const auto& p = Run();
  // Scaled to 800/2592 nodes, expect roughly 800/2592 of ~7k faults and a
  // nontrivial CE volume.
  EXPECT_GT(p.coalesced.faults.size(), 800u);
  EXPECT_LT(p.coalesced.faults.size(), 6000u);
  EXPECT_GT(p.coalesced.total_errors, 100'000u);
}

TEST_F(CampaignIntegrationTest, MajorityOfNodesErrorFree) {
  const auto& p = Run();
  // Paper: "more than 60% of nodes experienced no CEs".
  const double error_free =
      1.0 - static_cast<double>(p.positions.nodes_with_errors) /
                static_cast<double>(p.config.node_count);
  EXPECT_GT(error_free, 0.45);
  EXPECT_LT(error_free, 0.80);
}

TEST_F(CampaignIntegrationTest, ErrorsConcentratedFaultsDispersed) {
  const auto& p = Run();
  const double top_2pct_errors = p.positions.ce_concentration.ShareOfTop(
      static_cast<std::size_t>(0.02 * p.config.node_count));
  EXPECT_GT(top_2pct_errors, 0.5);

  // Fault concentration is far milder than error concentration.
  const auto fault_curve = stats::ComputeConcentration(p.positions.faults.per_node);
  const double top_2pct_faults =
      fault_curve.ShareOfTop(static_cast<std::size_t>(0.02 * p.config.node_count));
  EXPECT_LT(top_2pct_faults, top_2pct_errors);
}

TEST_F(CampaignIntegrationTest, MedianErrorsPerFaultIsOne) {
  const auto& p = Run();
  const auto counts = p.coalesced.ErrorsPerFault();
  std::vector<double> as_double(counts.begin(), counts.end());
  EXPECT_DOUBLE_EQ(stats::Median(as_double), 1.0);
  const auto violin = stats::Violin(as_double);
  EXPECT_GT(violin.max, 1000.0);  // heavy tail exists even at this scale
}

TEST_F(CampaignIntegrationTest, FaultUniformityVerdictsMatchPaper) {
  const auto& p = Run();
  EXPECT_TRUE(p.positions.fault_uniformity.socket.ConsistentWithUniform());
  EXPECT_TRUE(p.positions.fault_uniformity.bank.ConsistentWithUniform());
  EXPECT_TRUE(p.positions.fault_uniformity.column.ConsistentWithUniform());
  EXPECT_FALSE(p.positions.fault_uniformity.slot.ConsistentWithUniform());
  EXPECT_GT(p.positions.faults.per_rank[0], p.positions.faults.per_rank[1]);
}

TEST_F(CampaignIntegrationTest, RegionFaultSpreadIsSmall) {
  const auto& p = Run();
  const auto& regions = p.positions.faults.per_region;
  const double max_region = static_cast<double>(
      std::max({regions[0], regions[1], regions[2]}));
  const double min_region = static_cast<double>(
      std::min({regions[0], regions[1], regions[2]}));
  // Fig. 10b: per-region fault differences are modest.  Heavy-tailed
  // susceptibility inflates the variance at this scaled-down fleet size, so
  // the bound is generous; the full-scale bench reports the exact split.
  EXPECT_LT((max_region - min_region) / max_region, 0.45);
}

TEST_F(CampaignIntegrationTest, MonthlySeriesCoversAllErrors) {
  const auto& p = Run();
  const auto series = core::BuildMonthlySeries(p.loaded.memory_errors, p.coalesced,
                                               p.config.window.begin, 9);
  std::uint64_t total = 0;
  for (const auto m : series.all_errors) total += m;
  EXPECT_EQ(total, p.sim.total_ces);
}

TEST_F(CampaignIntegrationTest, HetAnalysisConsistentWithSim) {
  const auto& p = Run();
  const TimeWindow recording{p.config.het_firmware_start, p.config.window.end};
  const auto analysis = core::AnalyzeUncorrectable(
      p.loaded.het_events, recording,
      p.config.node_count * kDimmSlotsPerNode);
  EXPECT_EQ(analysis.memory_due_events, p.sim.dues_recorded_by_het);
  EXPECT_EQ(analysis.events_before_recording, 0u);
}

TEST_F(CampaignIntegrationTest, TemperatureBlindnessSurvivesPipeline) {
  const auto& p = Run();
  sensors::Environment env;
  core::TemperatureAnalysisConfig tconfig;
  tconfig.max_lookback_samples = 2000;
  tconfig.mean_samples = 32;
  tconfig.lookback_seconds = {SimTime::kSecondsPerDay};
  const core::TemperatureAnalyzer analyzer(tconfig, &env);
  const auto analysis = analyzer.Analyze(p.loaded.memory_errors, p.config.node_count);
  EXPECT_FALSE(analysis.AnyStrongPositiveCorrelation());
}

}  // namespace
}  // namespace astra
