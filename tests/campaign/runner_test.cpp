#include "campaign/runner.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "campaign/render.hpp"
#include "core/engine.hpp"
#include "faultsim/fleet.hpp"

namespace astra::campaign {
namespace {

// A grid small enough to simulate repeatedly in a unit test but still
// exercising every axis: 2 schemes x 1 rate x 2 policies = 4 cells.
ScenarioGrid TinyGrid() {
  ScenarioGrid grid;
  grid.node_count = 24;
  grid.trials = 3;
  grid.rate_multipliers = {1.0};
  return grid;
}

// One shared run for the tests that only inspect the result.
const CampaignTable& Table() {
  static const CampaignTable table = RunCampaign(TinyGrid(), 2);
  return table;
}

TEST(RunTrialTest, DeterministicPerCellAndTrial) {
  const ScenarioGrid grid = TinyGrid();
  const ScenarioCell cell = grid.CellAt(grid.BaselineIndex());
  const TrialMetrics a = RunTrial(grid, cell, 0);
  const TrialMetrics b = RunTrial(grid, cell, 0);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.ces, b.ces);
  EXPECT_EQ(a.dues, b.dues);
  EXPECT_EQ(a.sdc, b.sdc);
  EXPECT_EQ(a.pages_retired, b.pages_retired);
  EXPECT_EQ(a.fit_per_dimm, b.fit_per_dimm);

  // Different trial index -> different seed -> (almost surely) a different
  // fault draw.  Compare the full tuple to keep this robust.
  const TrialMetrics c = RunTrial(grid, cell, 1);
  EXPECT_TRUE(a.faults != c.faults || a.ces != c.ces || a.dues != c.dues ||
              a.sdc != c.sdc);
}

// A trial computes its FIT from the HET stream alone; it must be the full
// in-memory analysis's FIT bit for bit, in every cell of the default grid
// (whose chipkill cells record post-firmware DUEs, so some FIT is nonzero).
TEST(RunTrialTest, FitMatchesTheFullAnalysis) {
  const ScenarioGrid grid;
  bool saw_nonzero_fit = false;
  for (std::size_t c = 0; c < grid.CellCount(); ++c) {
    const ScenarioCell cell = grid.CellAt(c);
    for (int trial = 0; trial < grid.trials; ++trial) {
      SCOPED_TRACE(cell.Key() + " trial " + std::to_string(trial));
      const faultsim::CampaignConfig config = CellCampaignConfig(grid, cell, trial);
      const faultsim::CampaignResult result =
          faultsim::FleetSimulator(config).Run(1);
      const double full =
          core::AnalyzeCampaignResult(result, config, 1).dues.fit_per_dimm;
      const double fit = RunTrial(grid, cell, trial).fit_per_dimm;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(fit),
                std::bit_cast<std::uint64_t>(full));
      saw_nonzero_fit |= fit != 0.0;
    }
  }
  EXPECT_TRUE(saw_nonzero_fit);
}

TEST(RunCampaignTest, ShapeMatchesTheGrid) {
  const ScenarioGrid grid = TinyGrid();
  const CampaignTable& table = Table();
  ASSERT_EQ(table.cells.size(), grid.CellCount());
  ASSERT_EQ(table.deltas.size(), grid.CellCount());
  EXPECT_EQ(table.baseline_index, grid.BaselineIndex());
  for (std::size_t i = 0; i < table.cells.size(); ++i) {
    EXPECT_EQ(table.cells[i].key, grid.CellAt(i).Key());
    EXPECT_EQ(table.cells[i].trials.size(),
              static_cast<std::size_t>(grid.trials));
  }
}

TEST(RunCampaignTest, BaselineDeltaIsIdenticallyZero) {
  const CampaignTable& table = Table();
  const CellDelta& base = table.deltas[table.baseline_index];
  EXPECT_EQ(base.ces.point, 0.0);
  EXPECT_EQ(base.dues.point, 0.0);
  EXPECT_EQ(base.sdc.point, 0.0);
}

TEST(RunCampaignTest, CellCisBracketTheirMeans) {
  const CampaignTable& table = Table();
  for (const CellSummary& cell : table.cells) {
    EXPECT_LE(cell.ces_ci.lo, cell.ces_ci.point) << cell.key;
    EXPECT_GE(cell.ces_ci.hi, cell.ces_ci.point) << cell.key;
    EXPECT_LE(cell.dues_ci.lo, cell.dues_ci.point) << cell.key;
    EXPECT_GE(cell.dues_ci.hi, cell.dues_ci.point) << cell.key;
  }
}

// The ISSUE's headline determinism contract: the rendered bytes — text and
// JSON alike — are identical at every thread count and across repeat runs.
TEST(RunCampaignTest, RenderedOutputIsThreadCountInvariant) {
  const ScenarioGrid grid = TinyGrid();
  const CampaignTable t1 = RunCampaign(grid, 1);
  const CampaignTable t4 = RunCampaign(grid, 4);
  const CampaignTable t8 = RunCampaign(grid, 8);
  const std::string text1 = RenderCampaignText(t1);
  EXPECT_EQ(text1, RenderCampaignText(t4));
  EXPECT_EQ(text1, RenderCampaignText(t8));
  const std::string json1 = RenderCampaignJson(t1);
  EXPECT_EQ(json1, RenderCampaignJson(t4));
  EXPECT_EQ(json1, RenderCampaignJson(t8));

  // Repeat run at the same width: byte-identical too.
  EXPECT_EQ(text1, RenderCampaignText(RunCampaign(grid, 1)));
}

TEST(RunCampaignTest, PolicyNoneNeverRetiresOrReplaces) {
  const CampaignTable& table = Table();
  const double baseline_accum =
      table.cells[table.baseline_index].accumulation_dues_per_day;
  for (const CellSummary& cell : table.cells) {
    if (cell.cell.policy.name != "none") continue;
    for (const TrialMetrics& trial : cell.trials) {
      EXPECT_EQ(trial.pages_retired, 0u) << cell.key;
      EXPECT_EQ(trial.dimms_replaced, 0u) << cell.key;
    }
    // No scrubbing means transients accumulate over the whole campaign
    // window instead of one patrol interval: strictly worse than Astra.
    EXPECT_GT(cell.accumulation_dues_per_day, baseline_accum) << cell.key;
  }
}

TEST(RunCampaignTest, RenderTextShowsEveryCellTwice) {
  // Baseline key: "Baseline cell:" header + main table row (no delta row).
  // Every other key: main table row + delta table row.  Exactly two each.
  const ScenarioGrid grid = TinyGrid();
  const std::string text = RenderCampaignText(Table());
  for (std::size_t i = 0; i < grid.CellCount(); ++i) {
    const std::string key = grid.CellAt(i).Key();
    int count = 0;
    for (std::size_t at = text.find(key); at != std::string::npos;
         at = text.find(key, at + 1)) {
      ++count;
    }
    EXPECT_EQ(count, 2) << key;
  }
}

}  // namespace
}  // namespace astra::campaign
