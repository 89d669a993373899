// Fig. 4a: monthly CE volume and per-fault-mode error totals.  Published:
// 4,369,731 total CEs (~6/node/day); errors by fault mode: 1,412,738
// single-bit, 31,055 single-word, 54,126 single-column, 7,658 single-bank;
// the remaining ~2.86M attributable only to row-local patterns Astra's
// records cannot classify (§3.2); slight downward monthly trend.
// Fig. 4b: violin of errors per fault — median 1, maximum just over 91,000.
#include "common/bench_common.hpp"
#include "core/temporal.hpp"
#include "stats/descriptive.hpp"
#include "util/strings.hpp"

namespace astra {

int Run(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseArgs(argc, argv);
  bench::PrintBanner(
      "Fig. 4 - errors and fault modes; errors-per-fault violin",
      "4.37M CEs total; mode errors 1.41M bit / 31k word / 54k col / 7.7k bank; "
      "~2.86M unattributable (no row info); median errors/fault = 1, max ~91k");

  const bench::CampaignBundle bundle = bench::RunCampaign(options);
  const auto& co = bundle.coalesced;

  using faultsim::ObservedMode;
  bench::PrintComparison("total CEs", WithThousands(co.total_errors), "4,369,731");
  const double per_node_day =
      static_cast<double>(co.total_errors) /
      (static_cast<double>(options.nodes) * bundle.config.window.DurationDays());
  bench::PrintComparison("CEs per node per day", FormatDouble(per_node_day, 2),
                         "~6");

  struct ModeRef { ObservedMode mode; const char* paper; };
  const ModeRef refs[] = {
      {ObservedMode::kSingleBit, "1,412,738"},
      {ObservedMode::kSingleWord, "31,055"},
      {ObservedMode::kSingleColumn, "54,126"},
      {ObservedMode::kSingleBank, "7,658"},
      {ObservedMode::kUnattributedRowLike, "~2,864,154 (unattributed remainder)"},
  };
  TextTable table({"Observed mode", "Faults", "Errors", "Paper errors"});
  for (const ModeRef& ref : refs) {
    table.AddRow({std::string(faultsim::ObservedModeName(ref.mode)),
                  WithThousands(co.FaultsOfMode(ref.mode)),
                  WithThousands(co.ErrorsOfMode(ref.mode)), ref.paper});
  }
  table.Print(std::cout);

  // Monthly series with trend.
  const core::MonthlyErrorSeries series = core::BuildMonthlySeries(
      bundle.result.memory_errors, bundle.config.window.begin, bundle.MonthCount());
  std::cout << "monthly CE series:";
  for (const auto m : series.all_errors) std::cout << ' ' << m;
  std::cout << '\n';
  bench::PrintComparison("monthly trend slope",
                         FormatDouble(series.TrendSlopePerMonth(), 1) + " CE/month",
                         "slightly downward");

  // Fig. 4b violin.
  const auto counts = co.ErrorsPerFault();
  std::vector<double> as_double(counts.begin(), counts.end());
  const stats::ViolinSummary violin = stats::Violin(as_double);
  std::cout << "errors-per-fault violin: min=" << FormatDouble(violin.min, 0)
            << " p5=" << FormatDouble(violin.p5, 0)
            << " q1=" << FormatDouble(violin.q1, 0)
            << " median=" << FormatDouble(violin.median, 0)
            << " q3=" << FormatDouble(violin.q3, 0)
            << " p95=" << FormatDouble(violin.p95, 0)
            << " max=" << FormatDouble(violin.max, 0) << '\n';
  bench::PrintComparison("median errors per fault", FormatDouble(violin.median, 0), "1");
  bench::PrintComparison("max errors per fault", FormatDouble(violin.max, 0),
                         "just over 91,000");
  bench::PrintFooter();
  return 0;
}

}  // namespace astra

int main(int argc, char** argv) { return astra::Run(argc, argv); }
