// Fig. 12: errors (a) and faults (b) per rack.  Published: isolated error
// spikes exist (rack 31 logged >2x any other rack's errors) but the spikes
// vanish in the fault counts — "a small number of faults may lead to a large
// number of errors; the number of faults is not strongly correlated with
// rack position".
#include <algorithm>

#include "common/bench_common.hpp"
#include "util/strings.hpp"

namespace astra {

int Run(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseArgs(argc, argv);
  bench::PrintBanner(
      "Fig. 12 - errors and faults per rack",
      "error spikes (rack 31 >2x others) absent from fault counts; fault "
      "counts show no positional trend");

  const bench::CampaignBundle bundle = bench::RunCampaign(options);
  const core::PositionalAnalysis analysis =
      core::AnalyzePositions(bundle.coalesced, options.nodes);
  const core::PositionalCounts errors =
      core::TallyErrorPositions(bundle.result.memory_errors, options.nodes);

  const int racks_in_run = (options.nodes + kNodesPerRack - 1) / kNodesPerRack;
  std::uint64_t max_fault = 1;
  for (int rack = 0; rack < racks_in_run; ++rack) {
    max_fault = std::max(max_fault, analysis.faults.per_rack[static_cast<std::size_t>(rack)]);
  }
  for (int rack = 0; rack < racks_in_run; ++rack) {
    std::cout << "  rack " << rack << "\terrors="
              << WithThousands(errors.per_rack[static_cast<std::size_t>(rack)])
              << "\tfaults=" << analysis.faults.per_rack[static_cast<std::size_t>(rack)]
              << "  "
              << AsciiBar(static_cast<double>(
                              analysis.faults.per_rack[static_cast<std::size_t>(rack)]),
                          static_cast<double>(max_fault), 24)
              << '\n';
  }

  // Spike statistics: max rack vs the median rack, for errors and faults.
  auto spike_ratio = [racks_in_run](const auto& per_rack) {
    std::vector<double> counts;
    for (int rack = 0; rack < racks_in_run; ++rack) {
      counts.push_back(static_cast<double>(per_rack[static_cast<std::size_t>(rack)]));
    }
    std::vector<double> sorted = counts;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    const double max = sorted.back();
    return median > 0.0 ? max / median : 0.0;
  };
  bench::PrintComparison("max/median rack ratio (errors)",
                         FormatDouble(spike_ratio(errors.per_rack), 1),
                         ">2 (rack 31 spike)");
  bench::PrintComparison("max/median rack ratio (faults)",
                         FormatDouble(spike_ratio(analysis.faults.per_rack), 1),
                         "~2 (mild variation, no error-style spike)");
  bench::PrintComparison(
      "per-rack fault uniformity",
      "V=" + FormatDouble(analysis.fault_uniformity.rack.cramers_v, 3) +
          (analysis.fault_uniformity.rack.ConsistentWithUniform() ? " (uniform)"
                                                                  : " (skewed)"),
      "\"no significant trends in the number of faults experienced by each rack\"");
  bench::PrintFooter();
  return 0;
}

}  // namespace astra

int main(int argc, char** argv) { return astra::Run(argc, argv); }
