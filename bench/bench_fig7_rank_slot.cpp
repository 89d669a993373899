// Fig. 7: errors and faults per memory rank (a/b) and per DIMM slot (c/d).
// Published: rank 0 experiences more faults (and errors) than rank 1; slots
// J, E, I, P lead while A, K, L, M, N trail — positional, not noise.
#include <algorithm>

#include "common/bench_common.hpp"
#include "util/strings.hpp"

namespace astra {

int Run(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseArgs(argc, argv);
  bench::PrintBanner(
      "Fig. 7 - errors and faults per rank and per DIMM slot",
      "rank 0 > rank 1; slots J,E,I,P highest and A,K,L,M,N lowest fault counts");

  const bench::CampaignBundle bundle = bench::RunCampaign(options);
  const core::PositionalAnalysis analysis =
      core::AnalyzePositions(bundle.coalesced, options.nodes);
  const core::PositionalCounts errors =
      core::TallyErrorPositions(bundle.result.memory_errors, options.nodes);

  std::cout << "(a/b) per rank:\n";
  for (int r = 0; r < kRanksPerDimm; ++r) {
    std::cout << "  rank " << r << "\terrors="
              << WithThousands(errors.per_rank[static_cast<std::size_t>(r)])
              << "\tfaults="
              << analysis.faults.per_rank[static_cast<std::size_t>(r)] << '\n';
  }
  const double rank_ratio =
      static_cast<double>(analysis.faults.per_rank[0]) /
      std::max<std::uint64_t>(1, analysis.faults.per_rank[1]);
  bench::PrintComparison("rank0/rank1 fault ratio", FormatDouble(rank_ratio, 2),
                         ">1 (rank zero seems to experience more faults)");

  std::cout << "(c/d) per DIMM slot:\n";
  std::uint64_t max_fault = 1;
  for (const auto f : analysis.faults.per_slot) {
    max_fault = std::max<std::uint64_t>(max_fault, f);
  }
  for (int s = 0; s < kDimmSlotCount; ++s) {
    const auto slot = static_cast<DimmSlot>(s);
    std::cout << "  slot " << DimmSlotLetter(slot) << "\terrors="
              << WithThousands(errors.per_slot[static_cast<std::size_t>(s)])
              << "\tfaults=" << analysis.faults.per_slot[static_cast<std::size_t>(s)]
              << "  "
              << AsciiBar(static_cast<double>(
                              analysis.faults.per_slot[static_cast<std::size_t>(s)]),
                          static_cast<double>(max_fault), 28)
              << '\n';
  }

  // Rank order of slots by fault count: top-4 and bottom-5 sets.
  std::vector<int> order(kDimmSlotCount);
  for (int i = 0; i < kDimmSlotCount; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return analysis.faults.per_slot[static_cast<std::size_t>(a)] >
           analysis.faults.per_slot[static_cast<std::size_t>(b)];
  });
  std::string top4, bottom5;
  for (int i = 0; i < 4; ++i) top4 += DimmSlotLetter(static_cast<DimmSlot>(order[static_cast<std::size_t>(i)]));
  for (int i = kDimmSlotCount - 5; i < kDimmSlotCount; ++i) {
    bottom5 += DimmSlotLetter(static_cast<DimmSlot>(order[static_cast<std::size_t>(i)]));
  }
  std::sort(top4.begin(), top4.end());
  std::sort(bottom5.begin(), bottom5.end());
  bench::PrintComparison("top-4 slots by faults", top4, "E,I,J,P");
  bench::PrintComparison("bottom-5 slots by faults", bottom5, "A,K,L,M,N");
  bench::PrintComparison(
      "slot uniformity (Cramers V)",
      FormatDouble(analysis.fault_uniformity.slot.cramers_v, 3),
      "clearly non-uniform (some slots experience more faults)");
  bench::PrintFooter();
  return 0;
}

}  // namespace astra

int main(int argc, char** argv) { return astra::Run(argc, argv); }
