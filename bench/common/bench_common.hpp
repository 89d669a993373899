// Shared runtime for the reproduction benches.  Every bench binary:
//   - accepts --nodes=N, --seed=S (defaults: full Astra, seed 20190120) and
//     --quick (400 nodes unless --nodes is given, lighter sampling),
//   - answers --help with its usage and exits 0, and refuses an unknown flag
//     or a value out of range with exit 1 before any work,
//   - simulates the paper's campaign window,
//   - prints a `paper=` reference value beside every `measured=` value so
//     EXPERIMENTS.md can be regenerated by capturing stdout.
#pragma once

#include <iostream>
#include <optional>
#include <string>

#include "core/coalesce.hpp"
#include "core/positional.hpp"
#include "faultsim/fleet.hpp"
#include "sensors/environment.hpp"
#include "util/text_table.hpp"

namespace astra::bench {

struct BenchOptions {
  int nodes = kNumNodes;
  std::uint64_t seed = 20190120;
  // Smaller value for quick runs: scales analysis sampling effort.
  bool quick = false;
};

// Exits the process on --help (0) and on a bad flag (1).
[[nodiscard]] BenchOptions ParseArgs(int argc, char** argv);

// The standard campaign bundle most figures consume.
struct CampaignBundle {
  faultsim::CampaignConfig config;
  faultsim::CampaignResult result;
  core::CoalesceResult coalesced;
  sensors::Environment environment;

  [[nodiscard]] int MonthCount() const noexcept { return 9; }
};

// Run the fleet simulation + coalescing once.  A figure that slices by month
// bins the records itself (core::BuildMonthlySeries over MonthCount()).
[[nodiscard]] CampaignBundle RunCampaign(const BenchOptions& options);

// Banner with the experiment id and what the paper reported.
void PrintBanner(const std::string& experiment, const std::string& paper_claim);

// "key: measured=<x> paper=<y>" convenience line.
void PrintComparison(const std::string& key, const std::string& measured,
                     const std::string& paper);

// Footer separator so concatenated bench outputs stay readable.
void PrintFooter();

}  // namespace astra::bench
