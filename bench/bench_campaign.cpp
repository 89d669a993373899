// Campaign-lane throughput: the in-memory simulate -> analyze path
// (core::AnalyzeCampaignResult, which `astra-mrt report` runs) against the
// historical simulate -> write-to-disk -> ingest -> analyze round trip over
// the same trials.  The per-trial cost of the disk detour is the number that
// justifies the in-memory path.  (A campaign::RunTrial trial skips the full
// analysis: it computes only the FIT it reports, from the HET stream.)
//
// Both lanes run the identical trial set (the default grid's baseline cell,
// serial inside each trial, matching the runner's sharding contract).  The
// lanes are NOT byte-identical by design: the hardened ingest dedupes
// identical telemetry lines, and a stuck bit legitimately emits identical
// records, so the disk lane analyzes slightly fewer — the in-memory path is
// the ground-truth lane.  What IS asserted before any rate is reported:
// trial 0's serialization round trip parses every simulated record back
// with zero malformed lines.  Medians over repetitions land in
// BENCH_campaign.json; the CI gate tracks the in-memory lane (the disk lane
// measures the runner's filesystem more than the code).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "core/dataset.hpp"
#include "core/engine.hpp"
#include "faultsim/fleet.hpp"
#include "util/flags.hpp"

namespace astra {
namespace {

struct BenchOptions {
  int nodes = 48;
  int trials = 8;
  int reps = 5;
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// One in-memory trial: simulate, then the full engine-set analysis.
core::AnalysisArtifacts InMemoryTrial(const faultsim::CampaignConfig& config) {
  const faultsim::CampaignResult result =
      faultsim::FleetSimulator(config).Run(1);
  return core::AnalyzeCampaignResult(result, config, 1);
}

// One disk trial: serialize the campaign the way `simulate` does, re-parse
// it the way `analyze` does, then run the same engine set.
core::AnalysisArtifacts DiskTrial(const faultsim::CampaignConfig& config,
                                  const core::DatasetPaths& paths) {
  const faultsim::CampaignResult result =
      faultsim::FleetSimulator(config).Run(1);
  if (!core::WriteFailureData(paths, result)) {
    std::fprintf(stderr, "bench_campaign: write failed: %s\n",
                 paths.memory_errors.c_str());
    std::exit(2);
  }
  const core::DatasetIngest ingest =
      core::IngestFailureData(paths, logs::IngestPolicy{}, 1);
  return core::BuildAnalysisArtifacts(ingest.memory_errors, ingest.het_events,
                                      config.node_count, config.window,
                                      config.het_firmware_start,
                                      &ingest.quality, 1);
}

}  // namespace
}  // namespace astra

int main(int argc, char** argv) {
  astra::BenchOptions options;
  bool quick = false;
  const astra::flags::Spec spec{.program = "bench_campaign",
                                .flags = {{"--quick", &quick},
                                          {"--nodes", "N", &options.nodes, {1}},
                                          {"--trials", "N", &options.trials, {1}},
                                          {"--reps", "N", &options.reps, {1}}}};
  const astra::flags::Parsed parsed = astra::flags::Parse(spec, argc, argv);
  if (const auto code = astra::flags::Reply(spec, parsed)) return *code;
  // --quick shrinks whatever is not given explicitly.
  if (quick && !parsed.Given("--nodes")) options.nodes = 24;
  if (quick && !parsed.Given("--trials")) options.trials = 4;
  if (quick && !parsed.Given("--reps")) options.reps = 3;

  using astra::campaign::CellCampaignConfig;
  astra::campaign::ScenarioGrid grid;
  grid.node_count = options.nodes;
  grid.trials = options.trials;
  const astra::campaign::ScenarioCell cell = grid.CellAt(grid.BaselineIndex());

  const auto dir =
      (std::filesystem::temp_directory_path() / "astra_bench_campaign")
          .string();
  std::filesystem::create_directories(dir);
  const auto paths = astra::core::DatasetPaths::InDirectory(dir);

  // Correctness first: the serialization round trip must be parse-lossless
  // before the disk lane's rate means anything.
  {
    const auto config = CellCampaignConfig(grid, cell, 0);
    const auto result = astra::faultsim::FleetSimulator(config).Run(1);
    if (!astra::core::WriteFailureData(paths, result)) {
      std::fprintf(stderr, "bench_campaign: write failed in %s\n", dir.c_str());
      return 2;
    }
    const auto ingest =
        astra::core::IngestFailureData(paths, astra::logs::IngestPolicy{}, 1);
    if (ingest.memory_report.stats.parsed != result.memory_errors.size() ||
        ingest.memory_report.stats.malformed != 0) {
      std::fprintf(stderr,
                   "bench_campaign: round trip lost records (%llu simulated, "
                   "%llu parsed, %llu malformed) — refusing to report a rate\n",
                   static_cast<unsigned long long>(result.memory_errors.size()),
                   static_cast<unsigned long long>(ingest.memory_report.stats.parsed),
                   static_cast<unsigned long long>(ingest.memory_report.stats.malformed));
      return 2;
    }
  }

  std::vector<double> in_memory_rates, disk_rates;
  for (int rep = 0; rep < options.reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int trial = 0; trial < options.trials; ++trial) {
      (void)astra::InMemoryTrial(CellCampaignConfig(grid, cell, trial));
    }
    const auto t1 = std::chrono::steady_clock::now();
    for (int trial = 0; trial < options.trials; ++trial) {
      (void)astra::DiskTrial(CellCampaignConfig(grid, cell, trial), paths);
    }
    const auto t2 = std::chrono::steady_clock::now();
    const double in_memory_s = std::chrono::duration<double>(t1 - t0).count();
    const double disk_s = std::chrono::duration<double>(t2 - t1).count();
    in_memory_rates.push_back(options.trials / in_memory_s);
    disk_rates.push_back(options.trials / disk_s);
    std::printf("rep %d: in_memory=%.2f trials/s disk_roundtrip=%.2f trials/s\n",
                rep, in_memory_rates.back(), disk_rates.back());
  }
  std::filesystem::remove_all(dir);

  const double in_memory = astra::Median(in_memory_rates);
  const double disk = astra::Median(disk_rates);
  std::printf("median: in_memory=%.2f trials/s disk_roundtrip=%.2f trials/s "
              "speedup=%.2fx\n",
              in_memory, disk, in_memory / disk);

  std::ofstream out("BENCH_campaign.json");
  out << "{\n  \"nodes\": " << options.nodes
      << ",\n  \"trials\": " << options.trials
      << ",\n  \"reps\": " << options.reps << ",\n  \"sweep\": [\n"
      << "    {\"lane\": \"in_memory\", \"trials_per_s\": "
      << std::to_string(in_memory) << "},\n"
      << "    {\"lane\": \"disk_roundtrip\", \"trials_per_s\": "
      << std::to_string(disk) << "}\n  ],\n  \"speedup\": "
      << std::to_string(in_memory / disk) << "\n}\n";
  std::fprintf(stderr, "wrote campaign sweep to BENCH_campaign.json\n");
  return 0;
}
