// Full campaign pipeline: simulate a fleet, WRITE the §2.4-format dataset to
// disk (memory errors, HET events, sensor telemetry, inventory scans), read
// it back like an external analyst would, and run the complete analysis
// suite against the files.
//
// Usage:
//   fleet_campaign [output_dir] [--nodes=N] [--seed=S]
// Defaults: ./astra_dataset, 432 nodes (6 racks), seed 20190120.
// Run with --nodes=2592 for a full-scale dataset (~500 MB of TSV).
#include <filesystem>
#include <iostream>

#include "core/coalesce.hpp"
#include "core/dataset.hpp"
#include "core/positional.hpp"
#include "core/temporal.hpp"
#include "core/uncorrectable.hpp"
#include "replace/replacement_sim.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace astra;

  std::string out_dir = "astra_dataset";
  int nodes = 6 * kNodesPerRack;
  std::uint64_t seed = 20190120;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (StartsWith(arg, "--nodes=")) {
      if (const auto v = ParseInt64(arg.substr(8)); v && *v > 0 && *v <= kNumNodes) {
        nodes = static_cast<int>(*v);
      }
    } else if (StartsWith(arg, "--seed=")) {
      if (const auto v = ParseUint64(arg.substr(7))) seed = *v;
    } else if (!StartsWith(arg, "--")) {
      out_dir = std::string(arg);
    }
  }
  std::filesystem::create_directories(out_dir);
  const core::DatasetPaths paths = core::DatasetPaths::InDirectory(out_dir);

  // --- Simulate ---------------------------------------------------------
  faultsim::CampaignConfig config;
  config.SeedFrom(seed);
  config.node_count = nodes;
  std::cout << "simulating " << nodes << " nodes, seed " << seed << " ...\n";
  const faultsim::CampaignResult campaign = faultsim::FleetSimulator(config).Run();

  const sensors::Environment environment;

  auto replacement_config = replace::ReplacementSimConfig::AstraDefaults();
  replacement_config.seed = seed;
  replacement_config.node_count = nodes;
  const replace::ReplacementSimulator replacements(replacement_config);
  const auto replacement_campaign = replacements.Run();

  // --- Write the dataset --------------------------------------------------
  std::cout << "writing dataset to " << out_dir << "/ ...\n";
  if (!core::WriteFailureData(paths, campaign)) {
    std::cerr << "failed to write failure data\n";
    return 1;
  }
  core::SensorDumpOptions sensor_options;
  sensor_options.stride_minutes = 60;         // hourly keeps files manageable
  sensor_options.node_limit = std::min(nodes, 64);
  if (!core::WriteSensorData(paths, environment, config.window, nodes,
                             sensor_options)) {
    std::cerr << "failed to write sensor data\n";
    return 1;
  }
  if (!core::WriteInventoryData(paths, replacements, replacement_campaign,
                                /*stride_days=*/7)) {
    std::cerr << "failed to write inventory data\n";
    return 1;
  }

  // --- Read back and analyse (file-driven, like a real study) -------------
  std::cout << "re-ingesting files and analysing ...\n\n";
  // Parse-only: the lenient default's dedup would drop same-second repeats.
  const auto loaded = core::IngestFailureData(paths, logs::IngestPolicy::Raw());
  if (loaded.status != core::DatasetStatus::kOk) {
    std::cerr << "failed to read dataset back\n";
    return 1;
  }
  std::cout << "parsed " << WithThousands(loaded.memory_errors.size())
            << " memory error records ("
            << loaded.memory_report.stats.malformed << " malformed lines)\n";

  core::CoalesceOptions coalesce_options;
  coalesce_options.month_count = 9;
  coalesce_options.series_origin = config.window.begin;
  const auto faults =
      core::FaultCoalescer::Coalesce(loaded.memory_errors, coalesce_options);
  const auto positions = core::AnalyzePositions(faults, nodes);

  std::cout << "coalesced into " << WithThousands(faults.faults.size())
            << " faults; " << positions.nodes_with_errors << "/" << nodes
            << " nodes saw CEs\n";

  const auto series = core::BuildMonthlySeries(loaded.memory_errors, faults,
                                               config.window.begin, 9);
  std::cout << "monthly CE counts:";
  for (const auto m : series.all_errors) std::cout << ' ' << m;
  std::cout << "  (trend " << FormatDouble(series.TrendSlopePerMonth(), 1)
            << "/month)\n";

  const TimeWindow recording{config.het_firmware_start, config.window.end};
  const auto uncorrectable = core::AnalyzeUncorrectable(
      loaded.het_events, recording, nodes * kDimmSlotsPerNode);
  std::cout << "HET-recorded DUEs: " << uncorrectable.memory_due_events
            << "  -> FIT/DIMM = " << FormatDouble(uncorrectable.fit_per_dimm, 0)
            << '\n';

  std::cout << "\ndataset files:\n  " << paths.memory_errors << "\n  "
            << paths.het_events << "\n  " << paths.sensors << "\n  "
            << paths.inventory << '\n';
  return 0;
}
