// Fig. 6: correctable errors and faults per CPU socket (a/d), DRAM bank
// (b/e) and memory column (c/f).  Published: ERROR counts look skewed, but
// FAULT counts are "fairly uniformly distributed and ... variation can be
// explained by statistical noise" — consistent with Sridharan et al., and
// resolving the apparent contradiction with Hwang et al.'s error-only view.
#include <algorithm>

#include "common/bench_common.hpp"
#include "util/strings.hpp"

namespace astra {
namespace {

template <typename Array>
void PrintAxis(const std::string& title, const Array& errors, const Array& faults,
               const stats::ChiSquareResult& error_test,
               const stats::ChiSquareResult& fault_test) {
  std::cout << title << '\n';
  std::uint64_t max_fault = 1;
  for (const auto f : faults) max_fault = std::max<std::uint64_t>(max_fault, f);
  for (std::size_t i = 0; i < errors.size(); ++i) {
    std::cout << "  [" << i << "]\terrors=" << WithThousands(errors[i])
              << "\tfaults=" << faults[i] << "  "
              << AsciiBar(static_cast<double>(faults[i]),
                          static_cast<double>(max_fault), 28)
              << '\n';
  }
  bench::PrintComparison(
      title + " ERROR uniformity (Cramers V, p)",
      "V=" + FormatDouble(error_test.cramers_v, 3) +
          " p=" + FormatDouble(error_test.p_value, 4) +
          (error_test.ConsistentWithUniform() ? " (uniform)" : " (skewed)"),
      "skewed when counting errors");
  bench::PrintComparison(
      title + " FAULT uniformity (Cramers V, p)",
      "V=" + FormatDouble(fault_test.cramers_v, 3) +
          " p=" + FormatDouble(fault_test.p_value, 4) +
          (fault_test.ConsistentWithUniform() ? " (uniform)" : " (skewed)"),
      "uniform (noise-level variation)");
}

}  // namespace

int Run(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseArgs(argc, argv);
  bench::PrintBanner(
      "Fig. 6 - errors vs faults per socket / bank / column",
      "error counts skewed; fault counts uniform across all three structures");

  const bench::CampaignBundle bundle = bench::RunCampaign(options);
  const core::PositionalAnalysis analysis =
      core::AnalyzePositions(bundle.coalesced, options.nodes);
  const core::PositionalCounts errors =
      core::TallyErrorPositions(bundle.result.memory_errors, options.nodes);
  const auto error_uniformity = core::TestUniformity(errors);

  PrintAxis("(a/d) CPU socket", errors.per_socket, analysis.faults.per_socket,
            error_uniformity.socket, analysis.fault_uniformity.socket);
  PrintAxis("(b/e) DRAM bank", errors.per_bank, analysis.faults.per_bank,
            error_uniformity.bank, analysis.fault_uniformity.bank);
  PrintAxis("(c/f) memory column (32 buckets)", errors.per_column_bucket,
            analysis.faults.per_column_bucket, error_uniformity.column,
            analysis.fault_uniformity.column);
  bench::PrintFooter();
  return 0;
}

}  // namespace astra

int main(int argc, char** argv) { return astra::Run(argc, argv); }
