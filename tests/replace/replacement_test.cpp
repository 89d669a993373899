#include "replace/replacement_sim.hpp"

#include <gtest/gtest.h>

namespace astra::replace {
namespace {

TEST(ComponentHazardTest, ExpectedTotalIntegrates) {
  ComponentHazard hazard;
  hazard.infant_total = 100.0;
  hazard.infant_tau_days = 10.0;
  hazard.baseline_per_day = 2.0;
  hazard.waves = {{50.0, 5.0, 30.0}};
  const double total = hazard.ExpectedTotal(200.0);
  // infant ~100 (tau << horizon), baseline 400, wave ~30.
  EXPECT_NEAR(total, 530.0, 2.0);
  // Numerical cross-check: summing daily rates matches the closed form.
  double daily_sum = 0.0;
  for (int d = 0; d < 200; ++d) daily_sum += hazard.ExpectedOnDay(d + 0.5);
  EXPECT_NEAR(daily_sum, total, 5.0);
}

TEST(ComponentHazardTest, InfantMortalityDecays) {
  ComponentHazard hazard;
  hazard.infant_total = 100.0;
  hazard.infant_tau_days = 10.0;
  EXPECT_GT(hazard.ExpectedOnDay(0.0), hazard.ExpectedOnDay(20.0));
  EXPECT_GT(hazard.ExpectedOnDay(20.0), hazard.ExpectedOnDay(60.0));
}

TEST(AstraDefaultsTest, Table1TotalsReproduced) {
  const ReplacementSimConfig config = ReplacementSimConfig::AstraDefaults();
  const double days = config.tracking.DurationDays();
  // Table 1: 836 processors, 46 motherboards, 1515 DIMMs.
  EXPECT_NEAR(config.hazards[static_cast<int>(logs::ComponentKind::kProcessor)]
                  .ExpectedTotal(days),
              836.0, 30.0);
  EXPECT_NEAR(config.hazards[static_cast<int>(logs::ComponentKind::kMotherboard)]
                  .ExpectedTotal(days),
              46.0, 4.0);
  EXPECT_NEAR(config.hazards[static_cast<int>(logs::ComponentKind::kDimm)]
                  .ExpectedTotal(days),
              1515.0, 50.0);
}

TEST(ReplacementSimulatorTest, FullScaleRunLandsOnTable1) {
  const ReplacementSimulator simulator(ReplacementSimConfig::AstraDefaults());
  const ReplacementCampaign campaign = simulator.Run();
  const auto procs = campaign.CountOfKind(logs::ComponentKind::kProcessor);
  const auto mbs = campaign.CountOfKind(logs::ComponentKind::kMotherboard);
  const auto dimms = campaign.CountOfKind(logs::ComponentKind::kDimm);
  EXPECT_NEAR(static_cast<double>(procs), 836.0, 120.0);
  EXPECT_NEAR(static_cast<double>(mbs), 46.0, 25.0);
  EXPECT_NEAR(static_cast<double>(dimms), 1515.0, 160.0);
}

TEST(ReplacementSimulatorTest, Deterministic) {
  const ReplacementSimulator simulator(ReplacementSimConfig::AstraDefaults());
  const ReplacementCampaign a = simulator.Run();
  const ReplacementCampaign b = simulator.Run();
  EXPECT_EQ(a.events, b.events);
}

TEST(ReplacementSimulatorTest, EventsSortedAndInWindow) {
  ReplacementSimConfig config = ReplacementSimConfig::AstraDefaults();
  config.node_count = 400;
  const ReplacementSimulator simulator(config);
  const ReplacementCampaign campaign = simulator.Run();
  for (std::size_t i = 0; i < campaign.events.size(); ++i) {
    const auto& event = campaign.events[i];
    EXPECT_GE(event.day, config.tracking.begin);
    EXPECT_LT(event.day, config.tracking.end);
    EXPECT_LT(event.site.node, config.node_count);
    if (i > 0) {
      EXPECT_LE(campaign.events[i - 1].day, event.day);
    }
  }
}

TEST(ReplacementSimulatorTest, SerialChangesExactlyAtReplacement) {
  ReplacementSimConfig config = ReplacementSimConfig::AstraDefaults();
  config.node_count = 300;
  const ReplacementSimulator simulator(config);
  const ReplacementCampaign campaign = simulator.Run();
  ASSERT_FALSE(campaign.events.empty());
  const ReplacementEvent& event = campaign.events.front();
  const std::uint64_t before =
      simulator.SerialAt(campaign, event.site, event.day.AddDays(-1));
  const std::uint64_t after = simulator.SerialAt(campaign, event.site, event.day);
  EXPECT_NE(before, after);
}

TEST(ReplacementSimulatorTest, SnapshotCoversAllSites) {
  ReplacementSimConfig config = ReplacementSimConfig::AstraDefaults();
  config.node_count = 10;
  const ReplacementSimulator simulator(config);
  const ReplacementCampaign campaign = simulator.Run();
  const auto snapshot = simulator.SnapshotAt(campaign, config.tracking.begin);
  // 2 processors + 1 motherboard + 16 DIMMs per node.
  EXPECT_EQ(snapshot.size(), 10u * 19);
  for (const auto& record : snapshot) EXPECT_NE(record.serial, 0u);
}

TEST(DiffSnapshotsTest, RecoversInjectedReplacements) {
  ReplacementSimConfig config = ReplacementSimConfig::AstraDefaults();
  config.node_count = 500;
  const ReplacementSimulator simulator(config);
  const ReplacementCampaign campaign = simulator.Run();

  // Diff consecutive daily snapshots over a slice of the campaign and check
  // the recovered events match the ground truth for those days.
  const SimTime day0 = config.tracking.begin.AddDays(10);
  for (int d = 0; d < 5; ++d) {
    const SimTime before = day0.AddDays(d - 1);
    const SimTime after = day0.AddDays(d);
    const auto earlier = simulator.SnapshotAt(campaign, before);
    const auto later = simulator.SnapshotAt(campaign, after);
    const auto recovered = DiffSnapshots(earlier, later);
    std::size_t truth = 0;
    for (const auto& event : campaign.events) {
      if (event.day == after) ++truth;
    }
    EXPECT_EQ(recovered.size(), truth) << "day " << after.ToDateString();
  }
}

TEST(DiffSnapshotsTest, IdenticalSnapshotsNoEvents) {
  ReplacementSimConfig config = ReplacementSimConfig::AstraDefaults();
  config.node_count = 5;
  const ReplacementSimulator simulator(config);
  const ReplacementCampaign campaign = simulator.Run();
  const auto snapshot = simulator.SnapshotAt(campaign, config.tracking.begin);
  EXPECT_TRUE(DiffSnapshots(snapshot, snapshot).empty());
}

TEST(ReplacementCampaignTest, NoDuplicateSameDaySameSite) {
  const ReplacementSimulator simulator(ReplacementSimConfig::AstraDefaults());
  const ReplacementCampaign campaign = simulator.Run();
  for (std::size_t i = 1; i < campaign.events.size(); ++i) {
    const bool duplicate = campaign.events[i] == campaign.events[i - 1];
    EXPECT_FALSE(duplicate);
  }
}

}  // namespace
}  // namespace astra::replace
