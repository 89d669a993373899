// Edge-case sweep across the analysis suite: empty inputs, single-node
// fleets, degenerate windows, and partially-missing datasets must degrade
// gracefully (sane zeros, no crashes) — field data pipelines meet all of
// these in practice.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/burstiness.hpp"
#include "core/coalesce.hpp"
#include "core/dataset.hpp"
#include "core/lifetime.hpp"
#include "core/positional.hpp"
#include "core/predictor.hpp"
#include "core/temperature.hpp"
#include "core/temporal.hpp"
#include "core/uncorrectable.hpp"
#include "faultsim/fleet.hpp"
#include "scratch_path.hpp"
#include "stats/power_law.hpp"

namespace astra::core {
namespace {

TEST(EdgeCaseTest, EmptyRecordStreams) {
  const CoalesceResult coalesced = FaultCoalescer::Coalesce({});
  EXPECT_TRUE(coalesced.faults.empty());
  EXPECT_EQ(coalesced.total_errors, 0u);

  const PositionalAnalysis positions = AnalyzePositions(coalesced, 100);
  EXPECT_EQ(positions.nodes_with_errors, 0u);
  EXPECT_EQ(TallyErrorPositions({}, 100).Total(), 0u);
  EXPECT_FALSE(stats::FitPowerLaw(positions.faults.per_node).Valid());

  const MonthlyErrorSeries series =
      BuildMonthlySeries({}, SimTime::FromCivil(2019, 1, 20), 9);
  for (const auto m : series.all_errors) EXPECT_EQ(m, 0u);
  EXPECT_DOUBLE_EQ(series.TrendSlopePerMonth(), 0.0);

  const PredictionEvaluation prediction = EvaluatePredictor({}, PredictorConfig{});
  EXPECT_EQ(prediction.dimms_flagged, 0u);
  EXPECT_DOUBLE_EQ(prediction.Precision(), 0.0);
  EXPECT_DOUBLE_EQ(prediction.Recall(), 0.0);
}

TEST(EdgeCaseTest, TemperatureAnalyzerWithNoCes) {
  sensors::Environment env;
  TemperatureAnalysisConfig config;
  config.lookback_seconds = {SimTime::kSecondsPerHour};
  config.mean_samples = 8;
  const TemperatureAnalyzer analyzer(config, &env);
  const TemperatureAnalysis analysis = analyzer.Analyze({}, /*node_span=*/4);
  ASSERT_EQ(analysis.lookback_fits.size(), 1u);
  EXPECT_TRUE(analysis.lookback_fits[0].temperature_bins.empty());
  EXPECT_FALSE(analysis.AnyStrongPositiveCorrelation());
  // Decile series still produced from environmental data alone.
  for (const auto& deciles : analysis.deciles) {
    EXPECT_FALSE(deciles.by_temperature.buckets.empty());
    for (const auto& bucket : deciles.by_temperature.buckets) {
      EXPECT_DOUBLE_EQ(bucket.y_mean, 0.0);
    }
  }
}

TEST(EdgeCaseTest, SingleNodeFleet) {
  faultsim::CampaignConfig config;
  config.SeedFrom(9);
  config.node_count = 1;
  const auto sim = faultsim::FleetSimulator(config).Run();
  const auto coalesced = FaultCoalescer::Coalesce(sim.memory_errors);
  const auto positions = AnalyzePositions(coalesced, 1);
  EXPECT_LE(positions.nodes_with_errors, 1u);
  for (const auto& r : sim.memory_errors) EXPECT_EQ(r.node, 0);
}

TEST(EdgeCaseTest, UncorrectableAnalysisDegenerateWindows) {
  const TimeWindow reversed{SimTime::FromCivil(2019, 9, 1),
                            SimTime::FromCivil(2019, 8, 1)};
  const UncorrectableAnalysis analysis = AnalyzeUncorrectable({}, reversed, 100);
  EXPECT_DOUBLE_EQ(analysis.fit_per_dimm, 0.0);
  EXPECT_EQ(analysis.total_het_events, 0u);

  const UncorrectableAnalysis zero_dimms = AnalyzeUncorrectable(
      {}, {SimTime::FromCivil(2019, 8, 23), SimTime::FromCivil(2019, 9, 14)}, 0);
  EXPECT_DOUBLE_EQ(zero_dimms.fit_per_dimm, 0.0);
}

TEST(EdgeCaseTest, LifetimeAnalysisEmpty) {
  const TimeWindow window{SimTime::FromCivil(2019, 1, 20),
                          SimTime::FromCivil(2019, 9, 14)};
  const LifetimeAnalysis analysis =
      AnalyzeLifetimes({}, CoalesceResult{}, window, 64);
  EXPECT_EQ(analysis.time_to_first_ce.total_events, 0u);
  EXPECT_DOUBLE_EQ(analysis.first_ce_afr, 0.0);
  EXPECT_FALSE(analysis.first_ce_weibull.Valid());
}

TEST(EdgeCaseTest, BurstinessDegenerateBucket) {
  const TimeWindow window{SimTime::FromCivil(2019, 3, 1),
                          SimTime::FromCivil(2019, 3, 2)};
  EXPECT_EQ(AnalyzeBurstiness({}, window, 0).events, 0u);
  EXPECT_EQ(AnalyzeBurstiness({}, {window.begin, window.begin}, 3600).events, 0u);
}

TEST(EdgeCaseTest, DatasetMissingHetFileDegradesCleanly) {
  const std::string dir = ScratchPath("astra_edge_dataset");
  std::filesystem::create_directories(dir);
  const DatasetPaths paths = DatasetPaths::InDirectory(dir);
  // Write only the memory-error file (header, no records); het file absent.
  {
    logs::LogFileWriter<logs::MemoryErrorRecord> writer(paths.memory_errors);
    ASSERT_TRUE(writer.Ok());
  }
  const auto ingest = IngestFailureData(paths, logs::IngestPolicy{});
  EXPECT_EQ(ingest.status, DatasetStatus::kOk);
  EXPECT_TRUE(ingest.memory_errors.empty());
  EXPECT_TRUE(ingest.het_missing);
  EXPECT_TRUE(ingest.quality.stream_missing);
  std::filesystem::remove_all(dir);
}

TEST(EdgeCaseTest, CoalesceRecordsAtWindowBoundaries) {
  // Identical timestamps and extreme field values survive coalescing.
  logs::MemoryErrorRecord r;
  r.timestamp = SimTime::FromCivil(2019, 1, 20);
  r.node = kNumNodes - 1;
  r.slot = DimmSlot::P;
  r.socket = 1;
  r.rank = kRanksPerDimm - 1;
  r.bank = kBanksPerRank - 1;
  r.bit_position = logs::EncodeRecordedBit(kCodeBitsPerWord - 1, 3);
  DramCoord coord;
  coord.node = r.node;
  coord.slot = r.slot;
  coord.socket = r.socket;
  coord.rank = r.rank;
  coord.bank = r.bank;
  coord.row = kRowsPerBank - 1;
  coord.column = kColumnsPerRow - 1;
  r.physical_address = EncodePhysicalAddress(coord);
  const std::vector<logs::MemoryErrorRecord> records(5, r);
  const CoalesceResult result = FaultCoalescer::Coalesce(records);
  ASSERT_EQ(result.faults.size(), 1u);
  EXPECT_EQ(result.faults[0].error_count, 5u);
  EXPECT_EQ(result.faults[0].first_seen, result.faults[0].last_seen);
}

}  // namespace
}  // namespace astra::core
