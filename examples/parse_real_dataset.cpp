// Ingest an on-disk dataset in the §2.4 release layout and run the
// positional analyses — the workflow an external analyst follows with the
// public Astra data (or any machine's logs exported to the same schema).
//
// Usage:
//   parse_real_dataset <dataset_dir>
// If no directory is given (or files are missing), a small demonstration
// dataset is generated under ./demo_dataset first, then parsed — so the
// example is runnable standalone.
#include <filesystem>
#include <iostream>

#include "core/coalesce.hpp"
#include "core/dataset.hpp"
#include "core/positional.hpp"
#include "faultsim/fleet.hpp"
#include "util/strings.hpp"
#include "util/text_table.hpp"

int main(int argc, char** argv) {
  using namespace astra;

  std::string dir = argc > 1 ? argv[1] : "demo_dataset";
  core::DatasetPaths paths = core::DatasetPaths::InDirectory(dir);

  if (!std::filesystem::exists(paths.memory_errors)) {
    std::cout << "no dataset at " << dir << "; generating a demo dataset ...\n";
    std::filesystem::create_directories(dir);
    faultsim::CampaignConfig config;
    config.SeedFrom(4242);
    config.node_count = 2 * kNodesPerRack;
    const auto campaign = faultsim::FleetSimulator(config).Run();
    if (!core::WriteFailureData(paths, campaign)) {
      std::cerr << "could not write demo dataset\n";
      return 1;
    }
  }

  std::cout << "ingesting " << paths.memory_errors << " ...\n";
  // Parse-only: every record as written, malformed lines counted.
  const auto loaded = core::IngestFailureData(paths, logs::IngestPolicy::Raw());
  if (loaded.status != core::DatasetStatus::kOk) {
    std::cerr << "failed to open dataset files in " << dir << '\n';
    return 1;
  }
  const logs::ParseStats& stats = loaded.memory_report.stats;
  std::cout << "  memory errors: " << WithThousands(loaded.memory_errors.size())
            << " parsed, " << stats.malformed << " malformed ("
            << FormatDouble(100.0 * stats.MalformedFraction(), 3) << "%)\n";
  std::cout << "  HET events:    "
            << (loaded.het_missing ? "file missing"
                                   : WithThousands(loaded.het_events.size()) + " parsed")
            << "\n\n";

  // Infer the node span from the data itself (real datasets may be partial).
  NodeId max_node = 0;
  for (const auto& r : loaded.memory_errors) max_node = std::max(max_node, r.node);
  const int node_span = max_node + 1;

  const auto faults = core::FaultCoalescer::Coalesce(loaded.memory_errors);
  const auto positions = core::AnalyzePositions(faults, node_span);

  TextTable summary({"Metric", "Value"});
  summary.AddRow({"total CE records", WithThousands(faults.total_errors)});
  summary.AddRow({"coalesced faults", WithThousands(faults.faults.size())});
  summary.AddRow({"nodes with CEs", std::to_string(positions.nodes_with_errors) +
                                        " of " + std::to_string(node_span)});
  summary.AddRow(
      {"top 2% node CE share",
       FormatDouble(100.0 * positions.ce_concentration.ShareOfTop(
                        static_cast<std::size_t>(std::max(1, node_span / 50))),
                    1) + "%"});
  summary.AddRow({"rank0 / rank1 faults",
                  std::to_string(positions.faults.per_rank[0]) + " / " +
                      std::to_string(positions.faults.per_rank[1])});
  const auto verdict = [](const stats::ChiSquareResult& r) {
    return std::string(r.ConsistentWithUniform() ? "uniform" : "skewed") +
           " (V=" + FormatDouble(r.cramers_v, 3) + ")";
  };
  summary.AddRow({"fault uniformity: socket",
                  verdict(positions.fault_uniformity.socket)});
  summary.AddRow({"fault uniformity: bank", verdict(positions.fault_uniformity.bank)});
  summary.AddRow({"fault uniformity: slot", verdict(positions.fault_uniformity.slot)});
  summary.Print(std::cout);

  std::cout << "\nfault mode breakdown:\n";
  for (int m = 0; m < faultsim::kObservedModeCount; ++m) {
    const auto mode = static_cast<faultsim::ObservedMode>(m);
    if (faults.FaultsOfMode(mode) == 0) continue;
    std::cout << "  " << faultsim::ObservedModeName(mode) << ": "
              << faults.FaultsOfMode(mode) << " faults, "
              << WithThousands(faults.ErrorsOfMode(mode)) << " errors\n";
  }
  return 0;
}
