// The campaign runner: execute every (cell, trial) of a ScenarioGrid in
// memory (simulate, then compute the one analysed metric, the FIT/DIMM of
// the HET stream) and reduce each cell's trials to bootstrap-bounded
// summaries plus deltas against the Astra baseline cell.
//
// Parallelism: trials fan out over util/parallel ParallelShards with each
// trial run FULLY SERIAL inside its shard (FleetSimulator::Run(1)) — shard
// workers already occupy the shared pool, and a nested ParallelShards
// waiting on that same pool would deadlock.  Each trial writes its metrics
// into a pre-sized slot indexed by (cell, trial), so the reduction below
// never depends on the shard partition and the table is byte-identical at
// any --threads value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/scenario.hpp"
#include "stats/bootstrap.hpp"

namespace astra::campaign {

// What one seeded trial contributes to its cell.
struct TrialMetrics {
  std::uint64_t faults = 0;
  std::uint64_t ces = 0;
  std::uint64_t dues = 0;
  std::uint64_t sdc = 0;
  std::uint64_t pages_retired = 0;
  std::uint64_t dimms_replaced = 0;
  // Hard-fault FIT/DIMM of the HET stream, bit-identical to the full
  // analysis's `dues.fit_per_dimm`; 0 with no post-firmware DUEs.
  double fit_per_dimm = 0.0;
};

// One cell's trial set reduced to per-metric means with percentile-bootstrap
// 95% intervals.
struct CellSummary {
  std::string key;
  ScenarioCell cell;
  std::vector<TrialMetrics> trials;

  stats::BootstrapInterval ces_ci;
  stats::BootstrapInterval dues_ci;
  stats::BootstrapInterval sdc_ci;
  stats::BootstrapInterval fit_ci;

  // Closed-form transient-accumulation DUE rate under the cell's scrub
  // policy (faultsim/scrubber.hpp) — the channel the trial simulation does
  // not carry, reported alongside it.
  double accumulation_dues_per_day = 0.0;
};

// Mean-difference intervals (cell minus baseline), two-sample bootstrap.
// The baseline cell's delta row is identically zero.
struct CellDelta {
  stats::BootstrapInterval ces;
  stats::BootstrapInterval dues;
  stats::BootstrapInterval sdc;
};

struct CampaignTable {
  ScenarioGrid grid;
  std::size_t baseline_index = 0;
  std::vector<CellSummary> cells;   // grid enumeration order
  std::vector<CellDelta> deltas;    // parallel to `cells`
};

// Run one (cell, trial): simulate and compute its FIT entirely in memory,
// serially.  Exposed for the determinism tests.
[[nodiscard]] TrialMetrics RunTrial(const ScenarioGrid& grid,
                                    const ScenarioCell& cell, int trial);

// Run the whole grid.  `threads` follows the --threads convention
// (0 = hardware concurrency); the result is independent of it.
[[nodiscard]] CampaignTable RunCampaign(const ScenarioGrid& grid,
                                        unsigned threads = 0);

}  // namespace astra::campaign
