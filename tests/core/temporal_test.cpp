#include "core/temporal.hpp"

#include <gtest/gtest.h>

#include "faultsim/fleet.hpp"

namespace astra::core {
namespace {

TEST(MonthlySeriesTest, TotalsMatchRecords) {
  faultsim::CampaignConfig config;
  config.SeedFrom(11);
  config.node_count = 300;
  const auto sim = faultsim::FleetSimulator(config).Run();

  const MonthlyErrorSeries series =
      BuildMonthlySeries(sim.memory_errors, config.window.begin, 9);

  std::uint64_t total = 0;
  for (const std::uint64_t m : series.all_errors) total += m;
  EXPECT_EQ(total, sim.total_ces);
}

TEST(MonthlySeriesTest, TrendSlopeSignMatchesData) {
  MonthlyErrorSeries series;
  series.all_errors = {100, 90, 80, 70, 60};
  EXPECT_LT(series.TrendSlopePerMonth(), 0.0);
  series.all_errors = {10, 20, 30, 40};
  EXPECT_GT(series.TrendSlopePerMonth(), 0.0);
}

TEST(DailyCountsTest, BucketsByDay) {
  const TimeWindow window{SimTime::FromCivil(2019, 2, 1), SimTime::FromCivil(2019, 2, 11)};
  std::vector<SimTime> timestamps;
  timestamps.push_back(window.begin);                        // day 0
  timestamps.push_back(window.begin.AddHours(25));           // day 1
  timestamps.push_back(window.begin.AddDays(9).AddHours(1)); // day 9
  timestamps.push_back(window.begin.AddDays(20));            // outside
  timestamps.push_back(window.begin.AddSeconds(-5));         // outside
  const auto daily = DailyCounts(timestamps, window);
  ASSERT_EQ(daily.size(), 10u);
  EXPECT_EQ(daily[0], 1u);
  EXPECT_EQ(daily[1], 1u);
  EXPECT_EQ(daily[9], 1u);
  std::uint64_t total = 0;
  for (const auto c : daily) total += c;
  EXPECT_EQ(total, 3u);
}

TEST(DailyCountsTest, EmptyWindow) {
  const TimeWindow degenerate{SimTime::FromCivil(2019, 2, 1),
                              SimTime::FromCivil(2019, 2, 1)};
  EXPECT_EQ(DailyCounts({}, degenerate).size(), 1u);
}

}  // namespace
}  // namespace astra::core
