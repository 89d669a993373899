// Fig. 10: errors (a) and faults (b) by rack region (top/middle/bottom
// thirds of each 18-chassis rack).  Fig. 11: per-rack fraction of faults in
// each region.  Published: error counts differ noticeably by region (bottom
// highest on Astra) while fault counts differ only modestly (top slightly
// ahead) — and unlike Cielo/Jaguar there is NO systematic top-of-rack
// excess, consistent with Astra's front-to-back cooling (§3.4).
#include <algorithm>

#include "common/bench_common.hpp"
#include "util/strings.hpp"

namespace astra {

int Run(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseArgs(argc, argv);
  bench::PrintBanner(
      "Fig. 10/11 - errors and faults by rack region",
      "error skew is fault-luck; fault counts near-uniform across regions "
      "(difference far smaller than the error difference); no Cielo-style "
      "top-of-rack excess");

  const bench::CampaignBundle bundle = bench::RunCampaign(options);
  const core::PositionalAnalysis analysis =
      core::AnalyzePositions(bundle.coalesced, options.nodes);
  const core::PositionalCounts errors =
      core::TallyErrorPositions(bundle.result.memory_errors, options.nodes);

  std::cout << "(Fig. 10) per region:\n";
  for (int r = 0; r < kRackRegionCount; ++r) {
    std::cout << "  " << RackRegionName(static_cast<RackRegion>(r)) << "\terrors="
              << WithThousands(errors.per_region[static_cast<std::size_t>(r)])
              << "\tfaults="
              << analysis.faults.per_region[static_cast<std::size_t>(r)] << '\n';
  }

  const auto relative_spread = [](const auto& counts) {
    const double hi = static_cast<double>(*std::max_element(counts.begin(), counts.end()));
    const double lo = static_cast<double>(*std::min_element(counts.begin(), counts.end()));
    return hi > 0.0 ? (hi - lo) / hi : 0.0;
  };
  bench::PrintComparison(
      "relative region spread (errors vs faults)",
      FormatDouble(100.0 * relative_spread(errors.per_region), 1) + "% vs " +
          FormatDouble(100.0 * relative_spread(analysis.faults.per_region), 1) + "%",
      "error spread much larger than fault spread");
  bench::PrintComparison(
      "top-region fault excess over bottom",
      FormatDouble(
          100.0 * (static_cast<double>(analysis.faults.per_region[2]) /
                       std::max<std::uint64_t>(1, analysis.faults.per_region[0]) -
                   1.0),
          1) + "%",
      "small positive (cf. Cielo's +20% SRAM excess)");

  // Fig. 11: per-rack region shares.
  std::cout << "(Fig. 11) per-rack fault share by region (rack: bottom/middle/top %):\n";
  const int racks_in_run = (options.nodes + kNodesPerRack - 1) / kNodesPerRack;
  int top_heavy_racks = 0, racks_with_faults = 0;
  for (int rack = 0; rack < racks_in_run; ++rack) {
    const auto& row = analysis.faults.per_rack_region[static_cast<std::size_t>(rack)];
    const std::uint64_t total = row[0] + row[1] + row[2];
    if (total == 0) continue;
    ++racks_with_faults;
    top_heavy_racks += row[2] > row[0];
    std::cout << "  rack " << rack << ": "
              << FormatDouble(100.0 * static_cast<double>(row[0]) / static_cast<double>(total), 0) << "/"
              << FormatDouble(100.0 * static_cast<double>(row[1]) / static_cast<double>(total), 0) << "/"
              << FormatDouble(100.0 * static_cast<double>(row[2]) / static_cast<double>(total), 0) << '\n';
  }
  bench::PrintComparison(
      "racks where top region out-faults bottom",
      std::to_string(top_heavy_racks) + " of " + std::to_string(racks_with_faults),
      "no systematic top-heavy trend (\"faults are not significantly more "
      "likely to occur near the top\")");
  bench::PrintFooter();
  return 0;
}

}  // namespace astra

int main(int argc, char** argv) { return astra::Run(argc, argv); }
