// Ablation: corruption-severity sweep over the hardened ingest path.
//
// Writes one clean simulated dataset, then for every corruption mode and a
// severity ladder: copy, damage with the telemetry corruption injector,
// re-ingest leniently (quarantine-and-continue), and measure how far two
// headline results drift from the clean baseline:
//   - Fig. 5 node concentration (share of CEs on the top 2% of nodes),
//   - Fig. 7 slot-position skew (Cramér's V over DIMM slots, rank split).
// The point of the robustness layer is that the qualitative conclusions
// survive dirty field data; this bench quantifies exactly when they stop.
#include <cmath>
#include <filesystem>
#include <iostream>

#include "common/bench_common.hpp"
#include "core/dataset.hpp"
#include "logs/corruption.hpp"
#include "util/strings.hpp"

namespace astra {
namespace {

struct IngestMetrics {
  std::size_t delivered = 0;
  double quarantined_fraction = 0.0;
  double top2_share = 0.0;  // Fig. 5 concentration
  double slot_v = 0.0;      // Fig. 7 slot skew
  std::uint64_t rank0 = 0;
  std::uint64_t rank1 = 0;
};

IngestMetrics Measure(const core::DatasetIngest& ingest, int nodes) {
  IngestMetrics metrics;
  metrics.delivered = ingest.memory_errors.size();
  metrics.quarantined_fraction = ingest.memory_report.stats.MalformedFraction();
  if (ingest.memory_errors.empty()) return metrics;
  const auto faults =
      core::FaultCoalescer::Coalesce(ingest.memory_errors, {}, &ingest.quality);
  const auto positions = core::AnalyzePositions(faults, nodes, &ingest.quality);
  metrics.top2_share = positions.ce_concentration.ShareOfTop(
      static_cast<std::size_t>(std::max(1, nodes / 50)));
  metrics.slot_v = positions.fault_uniformity.slot.cramers_v;
  metrics.rank0 = positions.faults.per_rank[0];
  metrics.rank1 = positions.faults.per_rank[1];
  return metrics;
}

}  // namespace

int Run(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseArgs(argc, argv);
  bench::PrintBanner(
      "Ablation - telemetry corruption severity sweep through hardened ingest",
      "Figs. 5/7 conclusions should survive quarantine-level damage; "
      "§2.2 excludes malformed records rather than crashing on them");

  // 32 corrupt+ingest rounds: keep the campaign small.
  const int nodes = std::min(options.nodes, options.quick ? 72 : 288);
  faultsim::CampaignConfig config;
  config.SeedFrom(options.seed);
  config.node_count = nodes;
  std::cerr << "simulating " << nodes << " nodes ...\n";
  const auto campaign = faultsim::FleetSimulator(config).Run();

  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() /
      ("astra_bench_ingest_" + std::to_string(options.seed));
  const fs::path clean_dir = root / "clean";
  const fs::path work_dir = root / "work";
  fs::remove_all(root);
  fs::create_directories(clean_dir);
  if (!core::WriteFailureData(
          core::DatasetPaths::InDirectory(clean_dir.string()), campaign)) {
    std::cerr << "failed writing baseline dataset to " << clean_dir << '\n';
    return 2;
  }

  const logs::IngestPolicy lenient;  // default: quarantine-and-continue
  const auto baseline = Measure(
      core::IngestFailureData(core::DatasetPaths::InDirectory(clean_dir.string()),
                              lenient),
      nodes);
  std::cout << "clean baseline: " << WithThousands(baseline.delivered)
            << " records, top2% share "
            << FormatDouble(100.0 * baseline.top2_share, 1) << "%, slot V "
            << FormatDouble(baseline.slot_v, 3) << ", rank0/rank1 "
            << baseline.rank0 << "/" << baseline.rank1 << "\n\n";

  constexpr double kSeverities[] = {0.1, 0.3, 0.5, 0.8};
  TextTable table({"Mode", "Sev", "Delivered", "Quar %", "Top2% CE", "d(pp)",
                   "Slot V", "dV", "Verdict"});
  for (int m = 0; m < logs::kCorruptionModeCount; ++m) {
    const auto mode = static_cast<logs::CorruptionMode>(m);
    for (const double severity : kSeverities) {
      fs::remove_all(work_dir);
      fs::copy(clean_dir, work_dir, fs::copy_options::recursive);

      logs::CorruptionConfig corruption;
      corruption.seed = options.seed;
      corruption.Set(mode, severity);
      const auto damage = logs::CorruptionInjector(corruption)
                              .CorruptDirectory(work_dir.string());
      if (!damage) {
        std::cerr << "corrupt failed for " << logs::CorruptionModeName(mode)
                  << " sev " << severity << '\n';
        return 2;
      }

      const auto metrics = Measure(
          core::IngestFailureData(
              core::DatasetPaths::InDirectory(work_dir.string()), lenient),
          nodes);
      const double d_top_pp = 100.0 * (metrics.top2_share - baseline.top2_share);
      const double d_slot_v = metrics.slot_v - baseline.slot_v;
      const bool empty = metrics.delivered == 0;
      const bool stable =
          !empty && std::abs(d_top_pp) < 2.0 && std::abs(d_slot_v) < 0.05;
      table.AddRow({std::string(logs::CorruptionModeName(mode)),
                    FormatDouble(severity, 1), WithThousands(metrics.delivered),
                    FormatDouble(100.0 * metrics.quarantined_fraction, 2),
                    empty ? "-" : FormatDouble(100.0 * metrics.top2_share, 1),
                    empty ? "-" : FormatDouble(d_top_pp, 2),
                    empty ? "-" : FormatDouble(metrics.slot_v, 3),
                    empty ? "-" : FormatDouble(d_slot_v, 3),
                    empty ? "EMPTY" : (stable ? "stable" : "DRIFTED")});
    }
  }
  table.Print(std::cout);
  fs::remove_all(root);

  bench::PrintComparison(
      "observation",
      "lenient ingest keeps Fig. 5 concentration and Fig. 7 slot skew within "
      "tolerance for most damage classes; unrepaired duplicate storms and "
      "large missing windows are where conclusions start to drift",
      "\"we exclude malformed records\" (§2.2) — quarantine, don't crash");
  bench::PrintFooter();
  return 0;
}

}  // namespace astra

int main(int argc, char** argv) { return astra::Run(argc, argv); }
