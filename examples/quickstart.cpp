// Quickstart: simulate a small Astra-like fleet for the full campaign,
// coalesce the error log into faults, and print the headline reliability
// summary.  This is the 60-second tour of the toolkit's core loop:
//
//   CampaignConfig -> FleetSimulator -> MemoryErrorRecord stream
//                  -> FaultCoalescer -> faults + modes
//                  -> AnalyzePositions -> distribution verdicts
//
// Build and run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "core/coalesce.hpp"
#include "core/positional.hpp"
#include "faultsim/fleet.hpp"
#include "util/strings.hpp"
#include "util/text_table.hpp"

int main() {
  using namespace astra;

  // 1. Configure a campaign: 288 nodes (4 racks) over the paper's window.
  faultsim::CampaignConfig config;
  config.SeedFrom(/*campaign seed=*/2019);
  config.node_count = 4 * kNodesPerRack;

  // 2. Run the fleet simulator: produces the syslog CE/DUE record stream,
  //    the HET stream, and (for validation) the ground-truth fault list.
  const faultsim::CampaignResult campaign = faultsim::FleetSimulator(config).Run();
  std::cout << "simulated " << config.node_count << " nodes over "
            << FormatDouble(config.window.DurationDays(), 0) << " days: "
            << WithThousands(campaign.memory_errors.size()) << " memory error records ("
            << WithThousands(campaign.total_ces) << " CEs, "
            << campaign.total_dues << " DUEs)\n\n";

  // 3. Coalesce errors into faults — the paper's central methodology.
  const core::CoalesceResult faults =
      core::FaultCoalescer::Coalesce(campaign.memory_errors);
  TextTable mode_table({"Observed fault mode", "Faults", "Errors"});
  for (int m = 0; m < faultsim::kObservedModeCount; ++m) {
    const auto mode = static_cast<faultsim::ObservedMode>(m);
    if (faults.FaultsOfMode(mode) == 0) continue;
    mode_table.AddRow({std::string(faultsim::ObservedModeName(mode)),
                       WithThousands(faults.FaultsOfMode(mode)),
                       WithThousands(faults.ErrorsOfMode(mode))});
  }
  mode_table.Print(std::cout);

  // 4. Positional analysis over the faults (and the CEs they carry).
  const core::PositionalAnalysis positions =
      core::AnalyzePositions(faults, config.node_count);
  std::cout << "\nnodes with at least one CE: " << positions.nodes_with_errors
            << " of " << config.node_count << '\n';
  std::cout << "top 2% of nodes hold "
            << FormatDouble(100.0 * positions.ce_concentration.ShareOfTop(
                                static_cast<std::size_t>(0.02 * config.node_count)),
                            1)
            << "% of all CEs\n";
  std::cout << "fault uniformity verdicts (chi-square + Cramers V):\n";
  const auto verdict = [](const stats::ChiSquareResult& r) {
    return r.ConsistentWithUniform() ? "uniform" : "skewed";
  };
  std::cout << "  socket: " << verdict(positions.fault_uniformity.socket)
            << "  bank: " << verdict(positions.fault_uniformity.bank)
            << "  column: " << verdict(positions.fault_uniformity.column)
            << "  slot: " << verdict(positions.fault_uniformity.slot)
            << "  rank0/rank1: " << positions.faults.per_rank[0] << "/"
            << positions.faults.per_rank[1] << '\n';
  return 0;
}
