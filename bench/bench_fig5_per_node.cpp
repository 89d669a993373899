// Fig. 5a: histogram of fault counts per node (power-law shaped; most nodes
// 0 or 1 faults).  Fig. 5b: empirical CDF of CEs by node — 1013 nodes with
// >= 1 CE (>60% with none), top-8 nodes hold >50% of CEs, top 2% ~90%.
#include "common/bench_common.hpp"
#include "stats/power_law.hpp"
#include "util/strings.hpp"

namespace astra {

int Run(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseArgs(argc, argv);
  bench::PrintBanner(
      "Fig. 5 - per-node fault distribution and CE concentration",
      "power-law fault counts; 1013/2592 nodes with CEs; top-8 nodes >50% of "
      "CEs; top 2% of nodes ~90% of CEs");

  const bench::CampaignBundle bundle = bench::RunCampaign(options);
  const core::PositionalAnalysis analysis =
      core::AnalyzePositions(bundle.coalesced, options.nodes);

  // (a) frequency of per-node fault counts.
  std::cout << "(a) nodes by fault count (count -> nodes):\n";
  int shown = 0;
  for (const auto& [count, nodes] : analysis.faults_per_node_frequency.Counts()) {
    if (shown++ < 20 || count > 30) {
      std::cout << "  " << count << " -> " << nodes << '\n';
    }
  }
  // The fit ignores zeros: nodes without faults drop out.
  const stats::PowerLawFit fit = stats::FitPowerLaw(analysis.faults.per_node);
  bench::PrintComparison(
      "faults/node power-law fit",
      "alpha=" + FormatDouble(fit.alpha, 2) + " xmin=" + std::to_string(fit.xmin) +
          " KS=" + FormatDouble(fit.ks_distance, 3) +
          (fit.PlausiblePowerLaw() ? " (plausible)" : " (strained)"),
      "\"closely resembles a power law distribution\"");

  // (b) concentration.
  const auto& curve = analysis.ce_concentration;
  const double node_scale = static_cast<double>(options.nodes) / kNumNodes;
  bench::PrintComparison("nodes with >= 1 CE",
                         WithThousands(analysis.nodes_with_errors) + " of " +
                             std::to_string(options.nodes),
                         "1013 of 2592 (>60% with none)");
  bench::PrintComparison("share of CEs held by top 8 nodes",
                         FormatDouble(100.0 * curve.ShareOfTop(static_cast<std::size_t>(
                                          std::max(1.0, 8 * node_scale))), 1) + "%",
                         ">50%");
  bench::PrintComparison(
      "share held by top 2% of nodes",
      FormatDouble(100.0 * curve.ShareOfTop(
                       static_cast<std::size_t>(0.02 * options.nodes)), 1) + "%",
      "~90%");
  bench::PrintComparison(
      "nodes needed for 50% of CEs",
      std::to_string(curve.EntitiesForShare(0.5)),
      "8 (at full scale)");
  bench::PrintFooter();
  return 0;
}

}  // namespace astra

int main(int argc, char** argv) { return astra::Run(argc, argv); }
