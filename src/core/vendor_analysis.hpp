// Per-vendor reliability analysis.  Astra's CE records encode a consistent
// per-DIMM vendor tag in the high bits of the recorded bit position (§3.2
// footnote; logs::EncodeRecordedBit).  That makes the DIMM vendor
// RECOVERABLE from the error log alone — any DIMM that ever logged a CE
// reveals its vendor — which is exactly the information Sridharan et al.
// used to resolve their per-rack error trends into manufacturer effects,
// and the paper's limitations section flags as a first-order reliability
// variable.
//
// Caveat handled explicitly: vendor identity is only known for DIMMs that
// LOGGED at least one error, so per-vendor denominators must be estimated.
// With a deterministic hash-mix (as on Astra's simulated fleet) each vendor
// holds ~1/4 of the population; `assumed_vendor_share` makes the assumption
// visible and overridable.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "core/coalesce.hpp"
#include "stats/bootstrap.hpp"

namespace astra::core {

inline constexpr int kVendorCount = 4;

struct VendorSummary {
  int vendor = 0;
  std::uint64_t dimms_observed = 0;  // DIMMs of this vendor that logged CEs
  std::uint64_t faults = 0;
  std::uint64_t errors = 0;
  double faults_per_dimm_year = 0.0;  // against the estimated population
  stats::BootstrapInterval rate_ci;   // bootstrap over per-DIMM fault counts
};

struct VendorAnalysis {
  std::array<VendorSummary, kVendorCount> vendors;
  std::uint64_t unattributed_faults = 0;  // malformed/out-of-range encodings

  // Ratio of the highest to lowest per-vendor fault rate — Sridharan et
  // al.'s headline was a multiple-x spread between manufacturers.
  [[nodiscard]] double MaxToMinRateRatio() const noexcept;
};

struct VendorAnalysisOptions {
  // Fraction of the DIMM population assumed per vendor (uniform mix).
  std::array<double, kVendorCount> assumed_vendor_share = {0.25, 0.25, 0.25, 0.25};
  double campaign_days = 237.0;
  int dimm_population = kNumDimms;
  std::size_t bootstrap_replicates = 400;
  std::uint64_t bootstrap_seed = 0xb007ULL;
};

[[nodiscard]] VendorAnalysis AnalyzeVendors(const CoalesceResult& coalesced,
                                            const VendorAnalysisOptions& options);

}  // namespace astra::core
