// Reproducibility sweep: the headline metrics across independent campaign
// seeds at full scale.  Turns EXPERIMENTS.md's "seed-dependent" caveats into
// numbers: which reproduction targets are tight (total CEs, slot ordering,
// uniformity verdicts) and which are realization-dominated (per-mode error
// volumes, top-8 concentration, recorded-DUE FIT).
#include <algorithm>
#include <cmath>
#include <set>

#include "common/bench_common.hpp"
#include "core/positional.hpp"
#include "core/uncorrectable.hpp"
#include "stats/descriptive.hpp"
#include "util/strings.hpp"

namespace astra {
namespace {

struct SeedMetrics {
  double total_ces = 0.0;
  double faults = 0.0;
  double nodes_with_ces = 0.0;
  double top2pct_share = 0.0;
  double max_errors_per_fault = 0.0;
  double rank_ratio = 0.0;
  double fit = 0.0;
  bool slot_order_exact = false;
  bool fault_axes_uniform = false;
};

SeedMetrics RunSeed(std::uint64_t seed, int nodes) {
  bench::BenchOptions options;
  options.seed = seed;
  options.nodes = nodes;
  const bench::CampaignBundle bundle = bench::RunCampaign(options);
  const core::PositionalAnalysis positions =
      core::AnalyzePositions(bundle.coalesced, nodes);

  SeedMetrics metrics;
  metrics.total_ces = static_cast<double>(bundle.result.total_ces);
  metrics.faults = static_cast<double>(bundle.coalesced.faults.size());
  metrics.nodes_with_ces = static_cast<double>(positions.nodes_with_errors);
  metrics.top2pct_share = positions.ce_concentration.ShareOfTop(
      static_cast<std::size_t>(0.02 * nodes));
  for (const auto& fault : bundle.coalesced.faults) {
    metrics.max_errors_per_fault =
        std::max(metrics.max_errors_per_fault, static_cast<double>(fault.error_count));
  }
  metrics.rank_ratio =
      static_cast<double>(positions.faults.per_rank[0]) /
      std::max<std::uint64_t>(1, positions.faults.per_rank[1]);

  const TimeWindow recording{bundle.config.het_firmware_start,
                             bundle.config.window.end};
  metrics.fit = core::AnalyzeUncorrectable(bundle.result.het_records, recording,
                                           nodes * kDimmSlotsPerNode)
                    .fit_per_dimm;

  // Slot ordering check: {E,I,J,P} top-4, {A,K,L,M,N} bottom-5.
  std::vector<int> order(kDimmSlotCount);
  for (int i = 0; i < kDimmSlotCount; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return positions.faults.per_slot[static_cast<std::size_t>(a)] >
           positions.faults.per_slot[static_cast<std::size_t>(b)];
  });
  std::set<int> top4(order.begin(), order.begin() + 4);
  metrics.slot_order_exact =
      top4 == std::set<int>{static_cast<int>(DimmSlot::E), static_cast<int>(DimmSlot::I),
                            static_cast<int>(DimmSlot::J), static_cast<int>(DimmSlot::P)};
  metrics.fault_axes_uniform =
      positions.fault_uniformity.socket.ConsistentWithUniform() &&
      positions.fault_uniformity.bank.ConsistentWithUniform() &&
      positions.fault_uniformity.column.ConsistentWithUniform();
  return metrics;
}

std::string MeanSd(const std::vector<double>& xs, int precision) {
  const stats::Summary s = stats::Summarize(xs);
  return FormatDouble(s.mean, precision) + " ± " + FormatDouble(s.stddev, precision);
}

}  // namespace

int Run(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseArgs(argc, argv);
  bench::PrintBanner(
      "Reproducibility - headline metrics across independent seeds",
      "identifies which published numbers are population properties vs "
      "single-realization luck");

  const int seeds = options.quick ? 3 : 6;
  const int nodes = options.quick ? options.nodes : kNumNodes;

  std::vector<double> ces, faults, nodes_hit, top2, max_epf, rank_ratio, fit;
  int slot_exact = 0, axes_uniform = 0;
  for (int s = 0; s < seeds; ++s) {
    const SeedMetrics metrics = RunSeed(options.seed + static_cast<std::uint64_t>(s),
                                        nodes);
    ces.push_back(metrics.total_ces);
    faults.push_back(metrics.faults);
    nodes_hit.push_back(metrics.nodes_with_ces);
    top2.push_back(metrics.top2pct_share);
    max_epf.push_back(metrics.max_errors_per_fault);
    rank_ratio.push_back(metrics.rank_ratio);
    fit.push_back(metrics.fit);
    slot_exact += metrics.slot_order_exact;
    axes_uniform += metrics.fault_axes_uniform;
    std::cout << "  seed " << options.seed + static_cast<std::uint64_t>(s)
              << ": CEs=" << WithThousands(static_cast<std::uint64_t>(metrics.total_ces))
              << " faults=" << static_cast<std::uint64_t>(metrics.faults)
              << " FIT=" << FormatDouble(metrics.fit, 0) << '\n';
  }

  TextTable table({"Metric", "Across seeds (mean ± sd)", "Paper"});
  table.AddRow({"total CEs", MeanSd(ces, 0), "4,369,731"});
  table.AddRow({"coalesced faults", MeanSd(faults, 0), "(implied ~7k)"});
  table.AddRow({"nodes with CEs", MeanSd(nodes_hit, 0), "1013"});
  table.AddRow({"top-2% CE share", MeanSd(top2, 3), "~0.90"});
  table.AddRow({"max errors/fault", MeanSd(max_epf, 0), "~91,000"});
  table.AddRow({"rank0/rank1 fault ratio", MeanSd(rank_ratio, 2), ">1"});
  table.AddRow({"FIT per DIMM", MeanSd(fit, 0), "~1081"});
  table.AddRow({"slot top-4 = {E,I,J,P}", std::to_string(slot_exact) + "/" +
                                              std::to_string(seeds) + " seeds",
                "exact set"});
  table.AddRow({"socket/bank/column uniform", std::to_string(axes_uniform) + "/" +
                                                  std::to_string(seeds) + " seeds",
                "all uniform"});
  table.Print(std::cout);
  bench::PrintFooter();
  return 0;
}

}  // namespace astra

int main(int argc, char** argv) { return astra::Run(argc, argv); }
