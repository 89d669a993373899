#include "stats/special.hpp"

#include <cmath>
#include <limits>

namespace astra::stats {
namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 1e-14;
constexpr double kTiny = 1e-300;

// log Γ(a).  std::lgamma also writes Γ(a)'s sign to the global `signgam`, a
// data race when threads (parallel campaign trials) call these functions at
// once; lgamma_r returns the same value and keeps the sign local.
double LogGamma(double a) noexcept {
  int sign = 0;
  return ::lgamma_r(a, &sign);
}

// Lower incomplete gamma by series expansion (converges fast for x < a + 1).
double GammaPSeries(double a, double x) noexcept {
  double term = 1.0 / a;
  double sum = term;
  double ap = a;
  for (int i = 0; i < kMaxIterations; ++i) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::abs(term) < std::abs(sum) * kEpsilon) break;
  }
  return sum * std::exp(-x + a * std::log(x) - LogGamma(a));
}

// Upper incomplete gamma by continued fraction (Lentz), good for x >= a + 1.
double GammaQContinuedFraction(double a, double x) noexcept {
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < kEpsilon) break;
  }
  return h * std::exp(-x + a * std::log(x) - LogGamma(a));
}

// Continued fraction for the incomplete beta (Numerical Recipes `betacf`).
double BetaContinuedFraction(double a, double b, double x) noexcept {
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::abs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < kEpsilon) break;
  }
  return h;
}

}  // namespace

double RegularizedGammaP(double a, double x) noexcept {
  if (a <= 0.0 || x < 0.0) return std::numeric_limits<double>::quiet_NaN();
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return GammaPSeries(a, x);
  return 1.0 - GammaQContinuedFraction(a, x);
}

double RegularizedGammaQ(double a, double x) noexcept {
  if (a <= 0.0 || x < 0.0) return std::numeric_limits<double>::quiet_NaN();
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - GammaPSeries(a, x);
  return GammaQContinuedFraction(a, x);
}

double RegularizedBeta(double a, double b, double x) noexcept {
  if (a <= 0.0 || b <= 0.0 || x < 0.0 || x > 1.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double ln_front = LogGamma(a + b) - LogGamma(a) - LogGamma(b) +
                          a * std::log(x) + b * std::log1p(-x);
  const double front = std::exp(ln_front);
  // Use the symmetry relation to stay in the rapidly-converging regime.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

double ChiSquareSurvival(double x, double dof) noexcept {
  if (x <= 0.0) return 1.0;
  return RegularizedGammaQ(dof / 2.0, x / 2.0);
}

double StudentTTwoSidedP(double t, double dof) noexcept {
  if (dof <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  const double x = dof / (dof + t * t);
  return RegularizedBeta(dof / 2.0, 0.5, x);
}

double ChiSquareQuantile(double p, double dof) noexcept {
  if (p <= 0.0) return 0.0;
  if (p >= 1.0 || dof <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  // Bisection on the CDF 1 - Q(x); bracket grows until it covers p.
  double lo = 0.0, hi = std::max(dof, 1.0);
  while (1.0 - ChiSquareSurvival(hi, dof) < p && hi < 1e9) hi *= 2.0;
  for (int iter = 0; iter < 200 && hi - lo > 1e-10 * hi; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (1.0 - ChiSquareSurvival(mid, dof) < p) lo = mid;
    else hi = mid;
  }
  return 0.5 * (lo + hi);
}

PoissonRateInterval PoissonRateCi(std::uint64_t events, double exposure,
                                  double alpha) noexcept {
  PoissonRateInterval interval;
  if (exposure <= 0.0) return interval;
  // Garwood exact interval via the chi-square / Poisson duality:
  //   lo = chi2(alpha/2, 2k) / 2,  hi = chi2(1 - alpha/2, 2k + 2) / 2.
  const auto k = static_cast<double>(events);
  if (events > 0) {
    interval.lo = 0.5 * ChiSquareQuantile(alpha / 2.0, 2.0 * k) / exposure;
  }
  interval.hi = 0.5 * ChiSquareQuantile(1.0 - alpha / 2.0, 2.0 * k + 2.0) / exposure;
  return interval;
}

double HurwitzZeta(double s, double q) noexcept {
  if (s <= 1.0 || q <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  // Direct sum for the head, Euler-Maclaurin correction for the tail.
  constexpr int kHeadTerms = 64;
  double sum = 0.0;
  for (int k = 0; k < kHeadTerms; ++k) {
    sum += std::pow(q + k, -s);
  }
  const double a = q + kHeadTerms;
  // Tail: ∫_a^∞ x^-s dx + 0.5 a^-s + s/12 a^-(s+1) - s(s+1)(s+2)/720 a^-(s+3)
  sum += std::pow(a, 1.0 - s) / (s - 1.0);
  sum += 0.5 * std::pow(a, -s);
  sum += s / 12.0 * std::pow(a, -s - 1.0);
  sum -= s * (s + 1.0) * (s + 2.0) / 720.0 * std::pow(a, -s - 3.0);
  return sum;
}

}  // namespace astra::stats
