#include "campaign/runner.hpp"

#include "core/uncorrectable.hpp"
#include "faultsim/fleet.hpp"
#include "faultsim/scrubber.hpp"
#include "geometry/topology.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace astra::campaign {

namespace {

// Seed tags for the bootstrap resampling streams, disjoint per metric so
// adding a metric never perturbs another's interval.
constexpr std::uint64_t kTagBootCes = 0xb001;
constexpr std::uint64_t kTagBootDues = 0xb002;
constexpr std::uint64_t kTagBootSdc = 0xb003;
constexpr std::uint64_t kTagBootFit = 0xb004;

// DIMM data capacity per node: 16 slots x 8 GiB on Astra.
constexpr double kNodeCapacityGib = 128.0;

double MeanOf(std::span<const double> samples) {
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

stats::BootstrapInterval MeanCi(const std::vector<double>& samples,
                                std::uint64_t seed) {
  Rng rng(seed);
  return stats::BootstrapCi(samples, MeanOf, rng);
}

stats::BootstrapInterval MeanDeltaCi(const std::vector<double>& a,
                                     const std::vector<double>& b,
                                     std::uint64_t seed) {
  Rng rng(seed);
  return stats::BootstrapDeltaCi(a, b, MeanOf, rng);
}

std::vector<double> Extract(const std::vector<TrialMetrics>& trials,
                            double (*get)(const TrialMetrics&)) {
  std::vector<double> values;
  values.reserve(trials.size());
  for (const TrialMetrics& t : trials) values.push_back(get(t));
  return values;
}

double GetCes(const TrialMetrics& t) { return static_cast<double>(t.ces); }
double GetDues(const TrialMetrics& t) { return static_cast<double>(t.dues); }
double GetSdc(const TrialMetrics& t) { return static_cast<double>(t.sdc); }
double GetFit(const TrialMetrics& t) { return t.fit_per_dimm; }

}  // namespace

TrialMetrics RunTrial(const ScenarioGrid& grid, const ScenarioCell& cell,
                      int trial) {
  const faultsim::CampaignConfig config = CellCampaignConfig(grid, cell, trial);
  // Serial inner run: the caller may be a shared-pool shard (see header).
  const faultsim::CampaignResult result =
      faultsim::FleetSimulator(config).Run(/*max_threads=*/1);
  // The FIT exactly as the engine set's Finalize computes it on this campaign
  // (core::AnalyzeCampaignResult): same records, window and DIMM count.
  const core::UncorrectableAnalysis dues = core::AnalyzeUncorrectable(
      result.het_records, {config.het_firmware_start, config.window.end},
      config.node_count * kDimmSlotsPerNode);

  TrialMetrics metrics;
  metrics.faults = result.faults.size();
  metrics.ces = result.total_ces;
  metrics.dues = result.total_dues;
  metrics.sdc = result.total_sdc;
  metrics.pages_retired = result.retirement_stats.pages_retired;
  metrics.dimms_replaced = result.replacement_stats.dimms_replaced;
  metrics.fit_per_dimm = dues.fit_per_dimm;
  return metrics;
}

CampaignTable RunCampaign(const ScenarioGrid& grid, unsigned threads) {
  CampaignTable table;
  table.grid = grid;
  table.baseline_index = grid.BaselineIndex();

  const std::size_t cell_count = grid.CellCount();
  const std::size_t trials = static_cast<std::size_t>(grid.trials);
  std::vector<ScenarioCell> cells;
  cells.reserve(cell_count);
  for (std::size_t i = 0; i < cell_count; ++i) cells.push_back(grid.CellAt(i));

  // One slot per (cell, trial); shards own disjoint slot ranges.
  std::vector<TrialMetrics> slots(cell_count * trials);
  ParallelShards(slots.size(), ResolveThreadCount(threads),
                 [&](std::size_t /*shard*/, std::size_t begin, std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) {
                     const std::size_t cell_index = i / trials;
                     const int trial = static_cast<int>(i % trials);
                     slots[i] = RunTrial(grid, cells[cell_index], trial);
                   }
                 });

  const double exposure_hours =
      static_cast<double>(faultsim::CampaignConfig{}.window.DurationSeconds()) /
      3600.0;
  table.cells.reserve(cell_count);
  for (std::size_t c = 0; c < cell_count; ++c) {
    CellSummary summary;
    summary.cell = cells[c];
    summary.key = cells[c].Key();
    summary.trials.assign(slots.begin() + static_cast<std::ptrdiff_t>(c * trials),
                          slots.begin() + static_cast<std::ptrdiff_t>((c + 1) * trials));
    summary.ces_ci = MeanCi(Extract(summary.trials, GetCes),
                            MixSeed(grid.seed, kTagBootCes, c));
    summary.dues_ci = MeanCi(Extract(summary.trials, GetDues),
                             MixSeed(grid.seed, kTagBootDues, c));
    summary.sdc_ci = MeanCi(Extract(summary.trials, GetSdc),
                            MixSeed(grid.seed, kTagBootSdc, c));
    summary.fit_ci = MeanCi(Extract(summary.trials, GetFit),
                            MixSeed(grid.seed, kTagBootFit, c));
    summary.accumulation_dues_per_day = faultsim::ExpectedAccumulationDuesPerDay(
        cells[c].policy.scrub, grid.node_count * kNodeCapacityGib, exposure_hours);
    table.cells.push_back(std::move(summary));
  }

  const std::vector<TrialMetrics>& base = table.cells[table.baseline_index].trials;
  table.deltas.reserve(cell_count);
  for (std::size_t c = 0; c < cell_count; ++c) {
    CellDelta delta;
    if (c != table.baseline_index) {
      const std::vector<TrialMetrics>& own = table.cells[c].trials;
      delta.ces = MeanDeltaCi(Extract(own, GetCes), Extract(base, GetCes),
                              MixSeed(grid.seed, kTagBootCes, c, 1));
      delta.dues = MeanDeltaCi(Extract(own, GetDues), Extract(base, GetDues),
                               MixSeed(grid.seed, kTagBootDues, c, 1));
      delta.sdc = MeanDeltaCi(Extract(own, GetSdc), Extract(base, GetSdc),
                              MixSeed(grid.seed, kTagBootSdc, c, 1));
    }
    table.deltas.push_back(delta);
  }
  return table;
}

}  // namespace astra::campaign
