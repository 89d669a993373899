// §3.4 cross-study comparison: the paper closes by contrasting Astra's
// positional effects with Cielo/Jaguar (Sridharan et al., SC'13), Blue
// Waters (Gupta et al., DSN'15) and the Google fleet (Schroeder et al.,
// SIGMETRICS'09).  This bench evaluates each prior study's claim against
// the simulated Astra campaign and prints the verdict table — the §3.4
// narrative as executable checks.
#include <algorithm>

#include "common/bench_common.hpp"
#include "core/temperature.hpp"
#include "util/strings.hpp"

namespace astra {

int Run(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseArgs(argc, argv);
  bench::PrintBanner(
      "§3.4 - positional effects vs prior large-scale studies",
      "Astra reproduces NONE of the prior positional/environmental effects: "
      "no top-of-rack excess, no low-rack-number trend, no temperature "
      "coupling");

  const bench::CampaignBundle bundle = bench::RunCampaign(options);
  const core::PositionalAnalysis analysis =
      core::AnalyzePositions(bundle.coalesced, options.nodes);

  TextTable table({"Prior study", "Claimed effect (their system)",
                   "Astra measurement (this run)", "Holds on Astra?"});

  // 1. Sridharan et al. (Cielo/Jaguar): top chassis ~+20% SRAM faults.
  {
    const double top = static_cast<double>(analysis.faults.per_region[2]);
    const double bottom = std::max(1.0, static_cast<double>(analysis.faults.per_region[0]));
    const double excess = 100.0 * (top / bottom - 1.0);
    table.AddRow({"Sridharan'13 (Cielo/Jaguar)",
                  "top-of-rack chassis +20% faults",
                  "top-vs-bottom region: " + FormatDouble(excess, 1) + "%",
                  excess > 15.0 ? "weakly" : "no"});
  }

  // 2. Sridharan et al.: lower-numbered racks more errors.
  {
    const int racks = (options.nodes + kNodesPerRack - 1) / kNodesPerRack;
    std::vector<double> rack_index, rack_faults;
    for (int r = 0; r < racks; ++r) {
      rack_index.push_back(static_cast<double>(r));
      rack_faults.push_back(
          static_cast<double>(analysis.faults.per_rack[static_cast<std::size_t>(r)]));
    }
    const stats::LinearFit fit = stats::FitLine(rack_index, rack_faults);
    table.AddRow({"Sridharan'13", "lower rack numbers fault more",
                  "faults-vs-rack-number slope " + FormatDouble(fit.slope, 2) +
                      " (p=" + FormatDouble(fit.p_value, 3) + ")",
                  fit.slope < 0.0 && fit.IsStrongCorrelation() ? "yes" : "no"});
  }

  // 3. Gupta et al. (Blue Waters): failures likelier near the top cages.
  {
    int top_heavy = 0, racks_counted = 0;
    const int racks = (options.nodes + kNodesPerRack - 1) / kNodesPerRack;
    for (int r = 0; r < racks; ++r) {
      const auto& row = analysis.faults.per_rack_region[static_cast<std::size_t>(r)];
      if (row[0] + row[2] == 0) continue;
      ++racks_counted;
      top_heavy += row[2] > row[0];
    }
    table.AddRow({"Gupta'15 (Blue Waters)", "top cages fail more",
                  std::to_string(top_heavy) + "/" + std::to_string(racks_counted) +
                      " racks top-heavy (coin-flip = " +
                      std::to_string(racks_counted / 2) + ")",
                  top_heavy > racks_counted * 3 / 4 ? "yes" : "no"});
  }

  // 4. Schroeder et al. (Google): +20 degC ~ 2x CE rate.
  {
    core::TemperatureAnalysisConfig config;
    config.lookback_seconds = {};
    config.mean_samples = options.quick ? 24 : 64;
    const core::TemperatureAnalyzer analyzer(config, &bundle.environment);
    const auto temp = analyzer.Analyze(bundle.result.memory_errors, options.nodes);
    int increasing = 0;
    for (const auto& deciles : temp.deciles) {
      increasing += deciles.by_temperature.MonotonicallyIncreasing();
    }
    table.AddRow({"Schroeder'09 (Google fleet)", "+20C ~ 2x CE rate",
                  std::to_string(increasing) + "/6 sensors show increasing trend",
                  increasing >= 4 ? "yes" : "no"});
  }

  // 5. Hsu et al.: node failures double per +10 degC (Arrhenius).
  {
    // Astra's whole thermal envelope spans less than the 10 degC step the
    // Arrhenius claim needs, so the effect is unobservable by construction.
    table.AddRow({"Hsu'05 (Arrhenius)", "failure rate doubles per +10C",
                  "fleet decile span ~7C: effect unobservable in-envelope",
                  "untestable (tight climate)"});
  }

  table.Print(std::cout);
  bench::PrintComparison(
      "summary",
      "prior positional/thermal effects largely absent on Astra",
      "§3.4/§5: 'we observed no strong correlation ... between a node's "
      "vertical position ... and the rate at which it experiences memory "
      "errors'");
  bench::PrintFooter();
  return 0;
}

}  // namespace astra

int main(int argc, char** argv) { return astra::Run(argc, argv); }
