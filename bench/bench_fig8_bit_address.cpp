// Fig. 8: counts per cache-line bit position (a) and per physical address
// (b).  Published: "the vast majority of locations see very few faults" and
// "these distributions appear to follow a power law".  Counts are
// error-weighted (a handful of locations reach ~10^5, far above the total
// fault count — see DESIGN.md).
#include "common/bench_common.hpp"
#include "stats/histogram.hpp"
#include "stats/power_law.hpp"
#include "util/flat_map.hpp"
#include "util/strings.hpp"

namespace astra {
namespace {

void PrintCountFrequency(const std::string& title,
                         const std::map<std::uint64_t, std::uint64_t>& frequency) {
  std::cout << title << " (count -> locations, log-binned):\n";
  // Log-bin the counts: [1,2), [2,4), [4,8) ...
  std::map<int, std::uint64_t> bins;
  for (const auto& [count, locations] : frequency) {
    int bin = 0;
    for (std::uint64_t c = count; c > 1; c >>= 1) ++bin;
    bins[bin] += locations;
  }
  for (const auto& [bin, locations] : bins) {
    std::cout << "  [" << (1ULL << bin) << "," << (1ULL << (bin + 1)) << ")\t"
              << locations << '\n';
  }
}

}  // namespace

int Run(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseArgs(argc, argv);
  bench::PrintBanner(
      "Fig. 8 - counts per bit position and per physical address",
      "most locations see few errors; both distributions power-law shaped");

  const bench::CampaignBundle bundle = bench::RunCampaign(options);
  // Error-weighted counts: one increment per CE record.
  FlatCountMap<std::int32_t> per_bit_position;  // recorded bit
  FlatCountMap<std::uint64_t> per_address;
  for (const auto& record : bundle.result.memory_errors) {
    if (record.type != logs::FailureType::kCorrectable) continue;
    ++per_bit_position[record.bit_position];
    ++per_address[record.physical_address];
  }

  // Invert: how many bit positions / addresses carry each count.  The fits
  // take the counts in hash order; they depend only on the count multiset.
  std::map<std::uint64_t, std::uint64_t> bit_frequency, address_frequency;
  std::vector<std::uint64_t> bit_counts, address_counts;
  std::uint64_t max_bit_count = 0, max_addr_count = 0;
  for (const auto& [bit, count] : per_bit_position) {
    ++bit_frequency[count];
    bit_counts.push_back(count);
    max_bit_count = std::max(max_bit_count, count);
  }
  for (const auto& [addr, count] : per_address) {
    ++address_frequency[count];
    address_counts.push_back(count);
    max_addr_count = std::max(max_addr_count, count);
  }
  const stats::PowerLawFit bit_fit = stats::FitPowerLaw(bit_counts);
  const stats::PowerLawFit address_fit = stats::FitPowerLaw(address_counts);

  PrintCountFrequency("(a) per recorded bit position", bit_frequency);
  bench::PrintComparison("distinct recorded bit positions",
                         std::to_string(per_bit_position.size()),
                         "72 true positions x consistent vendor encoding");
  bench::PrintComparison("max errors at one bit position",
                         WithThousands(max_bit_count), "~10^5 (Fig. 8a x-range)");
  bench::PrintComparison(
      "bit-position count power-law fit",
      "alpha=" + FormatDouble(bit_fit.alpha, 2) +
          " KS=" + FormatDouble(bit_fit.ks_distance, 3),
      "\"appear to obey a power law\"");

  PrintCountFrequency("(b) per physical address", address_frequency);
  bench::PrintComparison("distinct failing addresses",
                         WithThousands(per_address.size()),
                         "(not published)");
  bench::PrintComparison("max errors at one address", WithThousands(max_addr_count),
                         "~10^2+ (Fig. 8b x-range)");
  bench::PrintComparison(
      "address count power-law fit",
      "alpha=" + FormatDouble(address_fit.alpha, 2) +
          " KS=" + FormatDouble(address_fit.ks_distance, 3),
      "\"appear to obey a power law\"");
  bench::PrintFooter();
  return 0;
}

}  // namespace astra

int main(int argc, char** argv) { return astra::Run(argc, argv); }
