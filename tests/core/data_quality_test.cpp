// DataQuality bridge and graceful-degradation guards: ingest damage becomes
// explicit caveats, and headline statistics flag themselves when their
// sample is too small to support the paper's conclusions.
#include "core/data_quality.hpp"

#include <gtest/gtest.h>

#include "core/coalesce.hpp"
#include "core/positional.hpp"
#include "core/temperature.hpp"
#include "core/uncorrectable.hpp"

namespace astra::core {
namespace {

logs::IngestReport DamagedReport() {
  logs::IngestReport report;
  report.stats.total_lines = 1000;
  report.stats.parsed = 900;
  report.stats.malformed = 100;
  report.malformed_by_reason[0] = 100;
  report.duplicates_removed = 50;
  report.out_of_order_seen = 20;
  report.reordered = 18;
  report.order_violations = 2;
  report.header_remapped = true;
  report.budget_exceeded = true;
  return report;
}

TEST(DataQualityTest, FromReportCopiesEveryCounter) {
  const auto q = DataQuality::FromReport(DamagedReport());
  EXPECT_EQ(q.lines_seen, 1000u);
  EXPECT_EQ(q.parsed, 900u);
  EXPECT_EQ(q.quarantined, 100u);
  EXPECT_EQ(q.duplicates_removed, 50u);
  EXPECT_EQ(q.out_of_order, 20u);
  EXPECT_EQ(q.reordered, 18u);
  EXPECT_EQ(q.order_violations, 2u);
  EXPECT_TRUE(q.header_remapped);
  EXPECT_TRUE(q.over_budget);
  EXPECT_FALSE(q.stream_missing);
  EXPECT_DOUBLE_EQ(q.QuarantinedFraction(), 0.1);
  EXPECT_TRUE(q.Degraded());
}

TEST(DataQualityTest, CleanReportIsNotDegraded) {
  logs::IngestReport report;
  report.stats.total_lines = 10;
  report.stats.parsed = 10;
  const auto q = DataQuality::FromReport(report);
  EXPECT_FALSE(q.Degraded());
  EXPECT_TRUE(q.Caveats().empty());
}

TEST(DataQualityTest, MergeSumsCountersAndOrsFlags) {
  auto a = DataQuality::FromReport(DamagedReport());
  DataQuality b;
  b.lines_seen = 5;
  b.parsed = 5;
  b.stream_missing = true;
  a.Merge(b);
  EXPECT_EQ(a.lines_seen, 1005u);
  EXPECT_TRUE(a.stream_missing);
  EXPECT_TRUE(a.over_budget);
}

TEST(DataQualityTest, CaveatsCoverEachDamageClass) {
  auto q = DataQuality::FromReport(DamagedReport());
  q.stream_missing = true;
  const auto caveats = q.Caveats();
  // quarantined, duplicates, order violations, header remap, missing stream,
  // over budget — six distinct disclosures.
  EXPECT_EQ(caveats.size(), 6u);
}

TEST(DataQualityTest, ReorderedOnlyGetsTheMilderCaveat) {
  DataQuality q;
  q.lines_seen = q.parsed = 100;
  q.reordered = 5;
  const auto caveats = q.Caveats();
  ASSERT_EQ(caveats.size(), 1u);
  EXPECT_NE(caveats[0].find("re-sorted"), std::string::npos);
}

// --- Analysis-side graceful degradation --------------------------------------

logs::MemoryErrorRecord OneCe(int i) {
  logs::MemoryErrorRecord r;
  r.timestamp = SimTime::FromCivil(2019, 4, 1).AddSeconds(i * 3600);
  r.node = static_cast<NodeId>(i % 4);
  r.slot = DimmSlot::B;
  r.socket = SocketOfSlot(r.slot);
  r.bank = static_cast<BankId>(i % kBanksPerRank);
  r.physical_address = static_cast<std::uint64_t>(i) * 0x40;
  return r;
}

TEST(GracefulDegradationTest, PositionalFlagsLowSample) {
  std::vector<logs::MemoryErrorRecord> records;
  for (int i = 0; i < 5; ++i) records.push_back(OneCe(i));
  const auto coalesced = FaultCoalescer::Coalesce(records);
  ASSERT_LT(coalesced.faults.size(), kMinFaultsForUniformity);
  const auto analysis = AnalyzePositions(coalesced, 4);
  EXPECT_TRUE(analysis.low_sample);
  EXPECT_FALSE(analysis.caveats.empty());
}

TEST(GracefulDegradationTest, QualityCaveatsReachAnalyses) {
  std::vector<logs::MemoryErrorRecord> records;
  for (int i = 0; i < 5; ++i) records.push_back(OneCe(i));
  const auto quality = DataQuality::FromReport(DamagedReport());
  const auto coalesced = FaultCoalescer::Coalesce(records, {}, &quality);
  EXPECT_FALSE(coalesced.caveats.empty());
  const auto analysis = AnalyzePositions(coalesced, 4, &quality);
  EXPECT_GT(analysis.caveats.size(), 1u);  // low-sample + quality caveats
}

TEST(GracefulDegradationTest, UncorrectableFlagsFewDueEvents) {
  std::vector<logs::HetRecord> records;
  logs::HetRecord due;
  due.timestamp = SimTime::FromCivil(2019, 9, 10);
  due.event = logs::HetEventType::kUncorrectableEcc;
  records.push_back(due);
  const TimeWindow window{SimTime::FromCivil(2019, 9, 1),
                          SimTime::FromCivil(2019, 9, 22)};
  const auto analysis = AnalyzeUncorrectable(records, window, 100);
  ASSERT_LT(analysis.memory_due_events, kMinDueEventsForRate);
  EXPECT_TRUE(analysis.low_confidence);
  EXPECT_FALSE(analysis.caveats.empty());
}

TEST(GracefulDegradationTest, UncorrectableLowConfidenceOnMissingStream) {
  std::vector<logs::HetRecord> records;
  for (int i = 0; i < 10; ++i) {
    logs::HetRecord due;
    due.timestamp = SimTime::FromCivil(2019, 9, 1).AddSeconds(i * 86400);
    due.event = logs::HetEventType::kUncorrectableEcc;
    records.push_back(due);
  }
  const TimeWindow window{SimTime::FromCivil(2019, 9, 1),
                          SimTime::FromCivil(2019, 9, 22)};
  DataQuality quality;
  quality.stream_missing = true;
  const auto analysis = AnalyzeUncorrectable(records, window, 100, &quality);
  EXPECT_TRUE(analysis.low_confidence);
}

TEST(GracefulDegradationTest, TemperatureFlagsLowSample) {
  const sensors::Environment env;
  TemperatureAnalysisConfig config;
  config.lookback_seconds = {SimTime::kSecondsPerHour};
  // Two nodes over one month: 2 x 6 sensors x 1 month = 12 observations,
  // well under the decile threshold.
  config.window = {SimTime::FromCivil(2019, 5, 1), SimTime::FromCivil(2019, 5, 10)};
  const TemperatureAnalyzer analyzer(config, &env);
  std::vector<logs::MemoryErrorRecord> records;
  for (int i = 0; i < 3; ++i) {
    auto r = OneCe(i);
    r.timestamp = config.window.begin.AddSeconds(3600 + i * 60);
    records.push_back(r);
  }
  const auto analysis = analyzer.Analyze(records, /*node_span=*/2);
  ASSERT_LT(analysis.observations.size(), kMinObservationsForDeciles);
  EXPECT_TRUE(analysis.low_sample);
  EXPECT_FALSE(analysis.caveats.empty());
}

}  // namespace
}  // namespace astra::core
