// campaign_grid: RunCampaign on the default 2x2x2 grid (grid seed
// 20190120, 36 nodes per trial, 20 trials per cell: 160 trials) at the
// default --threads=0, plus a thread-scaling lane on a prefix of the same
// grid: two trials per cell at two threads.  Everything runs in memory, so
// no text is parsed.  A traced run also replays every trial serially
// (FleetSimulator::Run(1), then AnalyzeCampaignResult at one thread, as
// RunTrial does) to time faultsim and core outside the pool.
//
// The workload seed orders each axis's values, as a grid file would list
// them: the table's row order and the runner's shard partition change, the
// trial set does not.  Changing the grid seed instead would move wall time
// by about a fifth and peak RSS by about two fifths between seeds, because
// a trial's error count is heavy-tailed.
#include <random>

#include "bench.hpp"
#include "campaign/render.hpp"
#include "campaign/runner.hpp"
#include "core/engine.hpp"
#include "stats.hpp"
#include "util/parallel.hpp"

namespace perfbench {
namespace {

using namespace astra;

constexpr int kTrials = 20;

bool SameTrial(const campaign::TrialMetrics& a, const campaign::TrialMetrics& b) {
  return a.faults == b.faults && a.ces == b.ces && a.dues == b.dues &&
         a.sdc == b.sdc && a.pages_retired == b.pages_retired &&
         a.dimms_replaced == b.dimms_replaced && a.fit_per_dimm == b.fit_per_dimm;
}

// Every trial of `prefix` must equal the same (cell, trial) of `full`:
// trial seeds depend on neither the trial count nor the thread count.
bool PrefixMatches(const campaign::CampaignTable& prefix,
                   const campaign::CampaignTable& full) {
  if (prefix.cells.size() != full.cells.size()) return false;
  for (std::size_t c = 0; c < prefix.cells.size(); ++c) {
    const auto& trials = prefix.cells[c].trials;
    for (std::size_t t = 0; t < trials.size(); ++t) {
      if (!SameTrial(trials[t], full.cells[c].trials[t])) return false;
    }
  }
  return true;
}

campaign::ScenarioGrid MakeGrid(std::uint64_t seed) {
  campaign::ScenarioGrid grid;
  grid.trials = kTrials;
  std::mt19937_64 rng(seed);
  std::shuffle(grid.schemes.begin(), grid.schemes.end(), rng);
  std::shuffle(grid.rate_multipliers.begin(), grid.rate_multipliers.end(), rng);
  std::shuffle(grid.policies.begin(), grid.policies.end(), rng);
  return grid;
}

}  // namespace

Outcome RunCampaignWorkload(const RunConfig& config, Tracer& tracer) {
  Outcome outcome;
  const unsigned threads = ResolveThreadCount(0);

  // Set-up: the grids and every trial's simulator config, kSetupReps times.
  std::vector<Timing> generate_t;
  campaign::ScenarioGrid grid;
  std::vector<faultsim::CampaignConfig> trial_configs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ScopedSpan setup_span(tracer, "bench.setup");
    generate_t.push_back(Timed([&] {
      grid = MakeGrid(config.seed);
      trial_configs.clear();
      for (std::size_t c = 0; c < grid.CellCount(); ++c) {
        const campaign::ScenarioCell cell = grid.CellAt(c);
        for (int t = 0; t < grid.trials; ++t) {
          trial_configs.push_back(campaign::CellCampaignConfig(grid, cell, t));
        }
      }
    }));
  }
  campaign::ScenarioGrid two_per_cell = grid;
  two_per_cell.trials = 2;
  const double cells = static_cast<double>(grid.CellCount());

  LaneTimes full;
  LaneTimes pair;
  campaign::CampaignTable first;
  std::string first_text;
  // One pass: the three lanes, every table checked against the first
  // pass's full table.
  const auto pass = [&] {
    const auto timed = [&](const char* span_name, const campaign::ScenarioGrid& g,
                           unsigned lane_threads, campaign::CampaignTable& table) {
      return Timed([&] {
        ScopedSpan span(tracer, span_name);
        table = campaign::RunCampaign(g, lane_threads);
      });
    };
    campaign::CampaignTable table;
    campaign::CampaignTable two;
    const Timing full_t = timed("campaign.run", grid, 0, table);
    const Timing pair_t = timed("campaign.run_2threads", two_per_cell, 2, two);
    const std::string text = campaign::RenderCampaignText(table);
    if (first_text.empty()) {
      first_text = text;
      first = table;
    }
    std::string error;
    if (text != first_text) {
      error = "campaign table differs from the first pass";
    } else if (!PrefixMatches(two, first)) {
      error = "prefix-grid trials differ from the full grid's";
    }
    if (!outcome.Op(error)) return false;
    full.Add(tracer, full_t);
    pair.Add(tracer, pair_t);
    return true;
  };

  tracer.SetRecording(false);
  bool warm_ok = false;
  Timing setup_t = *MedianTiming(generate_t);
  setup_t += Timed([&] { warm_ok = pass(); });
  if (!warm_ok) return outcome;
  tracer.SetRecording(true);
  full = pair = LaneTimes{};

  // Traced runs: every trial serially, checked against the table.
  double window = config.seconds;
  std::uint64_t records = 0;
  if (config.trace) {
    const auto start = std::chrono::steady_clock::now();
    std::size_t index = 0;
    for (std::size_t c = 0; c < first.cells.size(); ++c) {
      for (int t = 0; t < grid.trials; ++t, ++index) {
        ScopedSpan trial_span(tracer, "bench.trial");
        const auto& trial_config = trial_configs[index];
        faultsim::CampaignResult result;
        {
          ScopedSpan span(tracer, "faultsim.run");
          result = faultsim::FleetSimulator(trial_config).Run(1);
        }
        records += result.memory_errors.size();
        core::AnalysisArtifacts artifacts;
        {
          ScopedSpan span(tracer, "core.analyze_campaign");
          artifacts = core::AnalyzeCampaignResult(result, trial_config, 1);
        }
        campaign::TrialMetrics metrics;
        metrics.faults = result.faults.size();
        metrics.ces = result.total_ces;
        metrics.dues = result.total_dues;
        metrics.sdc = result.total_sdc;
        metrics.pages_retired = result.retirement_stats.pages_retired;
        metrics.dimms_replaced = result.replacement_stats.dimms_replaced;
        metrics.fit_per_dimm = artifacts.dues.fit_per_dimm;
        const bool same = SameTrial(metrics, first.cells[c].trials[static_cast<std::size_t>(t)]);
        if (!outcome.Op(same ? "" : "serial trial differs from RunCampaign's")) {
          return outcome;
        }
      }
    }
    window = std::max(0.0, window - SecondsSince(start));
  }

  bool ok = true;
  RunPasses(window, 3, [&](int index) {
    if (!ok) return;
    if (config.trace) tracer.SetRecording(index % 2 == 0);
    ScopedSpan span(tracer, "bench.pass");
    ok = pass();
  });
  tracer.SetRecording(true);
  if (!ok) return outcome;

  const Timing full_t = AddLane(outcome, "campaign", full);
  AddLane(outcome, "campaign_2threads", pair);
  const double trials = cells * grid.trials;
  outcome.Add(outcome.named, "campaign_trials_per_s", trials / full_t.wall_s, "trials/s");
  AddSetup(outcome, setup_t);
  if (config.trace) {
    // Summed over the serial trials: the grid's whole serial cost.
    const auto totals = TotalsByName(tracer.Spans());
    const double run_s = totals.at("faultsim.run").total_s;
    const double analyze_s = totals.at("core.analyze_campaign").total_s;
    const double busy_s = run_s + analyze_s;
    outcome.Add(outcome.named, "faultsim.run_s", run_s, "s");
    outcome.Add(outcome.named, "core.analyze_campaign_s", analyze_s, "s");
    outcome.Add(outcome.named, "faultsim.records", static_cast<double>(records), "count");
    outcome.Add(outcome.named, "campaign.parallel_efficiency",
                busy_s / (threads * full_t.wall_s), "ratio");
    outcome.Add(outcome.listed, "records", static_cast<double>(records), "count");
    outcome.Add(outcome.listed, "trace.overhead_ms",
                1e3 * (MedianTiming(full.traced)->cpu_s - MedianTiming(full.plain)->cpu_s),
                "ms");
  } else {
    outcome.Add(outcome.listed, "setup_s", setup_t.cpu_s, "s");
    outcome.Add(outcome.listed, "op_ms", 1e3 * full_t.cpu_s / trials, "ms");
  }
  return outcome;
}

}  // namespace perfbench
