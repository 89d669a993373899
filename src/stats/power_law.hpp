// Discrete power-law fitting following Clauset, Shalizi & Newman (2009) —
// the paper's reference [3] for the claim that per-node fault counts,
// per-bit-position counts and per-address counts "appear to obey a power
// law" (Figs. 5a and 8).
//
// The pipeline is the standard one: for a candidate xmin, estimate the tail
// exponent by (approximate discrete) maximum likelihood, measure the
// Kolmogorov-Smirnov distance between the fitted model and the empirical
// tail, and pick the xmin minimizing KS.
#pragma once

#include <cstdint>
#include <span>

namespace astra::stats {

struct PowerLawFit {
  double alpha = 0.0;        // tail exponent, P(k) ∝ k^-alpha for k >= xmin
  std::uint64_t xmin = 1;
  double ks_distance = 1.0;  // KS distance of the fitted tail
  double alpha_stderr = 0.0; // asymptotic standard error (alpha-1)/sqrt(n_tail)
  std::size_t tail_count = 0;   // samples with value >= xmin
  std::size_t total_count = 0;  // all positive samples considered

  [[nodiscard]] bool Valid() const noexcept { return alpha > 1.0 && tail_count >= 2; }

  // Heuristic plausibility check: the fit is a reasonable description when
  // the tail retains a meaningful share of the data and the KS distance is
  // small for the tail size.  (A full semi-parametric bootstrap p-value is
  // overkill for a figure harness; the tests exercise the estimator directly
  // against synthetic data.)
  [[nodiscard]] bool PlausiblePowerLaw() const noexcept;
};

// Both fitters depend only on the multiset of positive samples: zeros are
// ignored (count data) and the order of `samples` does not change a bit of
// the result, so callers may pass counts straight from a hash table.

// Fit with a fixed xmin.
[[nodiscard]] PowerLawFit FitPowerLawAt(std::span<const std::uint64_t> samples,
                                        std::uint64_t xmin);

// Scan xmin over the distinct sample values (capped at `max_candidates`
// distinct candidates for large inputs) and return the KS-optimal fit.
[[nodiscard]] PowerLawFit FitPowerLaw(std::span<const std::uint64_t> samples,
                                      std::size_t max_candidates = 64);

// CDF of the fitted discrete power law: P(X <= k | X >= xmin).
[[nodiscard]] double PowerLawCdf(const PowerLawFit& fit, std::uint64_t k) noexcept;

}  // namespace astra::stats
