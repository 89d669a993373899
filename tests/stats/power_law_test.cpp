#include "stats/power_law.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace astra::stats {
namespace {

std::vector<std::uint64_t> SyntheticPowerLaw(double alpha, std::size_t n,
                                             std::uint64_t kmax, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> samples(n);
  for (auto& s : samples) s = rng.DiscretePowerLaw(alpha, kmax);
  return samples;
}

class PowerLawRecoveryTest : public ::testing::TestWithParam<double> {};

TEST_P(PowerLawRecoveryTest, RecoversAlpha) {
  const double alpha = GetParam();
  const auto samples = SyntheticPowerLaw(alpha, 20000, 1'000'000, 99);
  const PowerLawFit fit = FitPowerLawAt(samples, 1);
  ASSERT_TRUE(fit.Valid());
  EXPECT_NEAR(fit.alpha, alpha, 0.1) << "alpha=" << alpha;
  EXPECT_LT(fit.ks_distance, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Alphas, PowerLawRecoveryTest,
                         ::testing::Values(1.5, 2.0, 2.5, 3.0));

TEST(PowerLawFitTest, XminScanFindsTail) {
  // Mixture: uniform noise below 10, power law above.
  Rng rng(123);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(1 + rng.UniformInt(std::uint64_t{9}));
  for (int i = 0; i < 5000; ++i) {
    samples.push_back(10 * rng.DiscretePowerLaw(2.2, 100'000));
  }
  const PowerLawFit fit = FitPowerLaw(samples);
  ASSERT_TRUE(fit.Valid());
  EXPECT_GE(fit.xmin, 5u);  // scan must move past the noisy head
}

TEST(PowerLawFitTest, StderrShrinksWithN) {
  const auto small = SyntheticPowerLaw(2.0, 500, 100'000, 7);
  const auto large = SyntheticPowerLaw(2.0, 50'000, 100'000, 7);
  const PowerLawFit fit_small = FitPowerLawAt(small, 1);
  const PowerLawFit fit_large = FitPowerLawAt(large, 1);
  EXPECT_GT(fit_small.alpha_stderr, fit_large.alpha_stderr);
}

TEST(PowerLawFitTest, IgnoresZeros) {
  std::vector<std::uint64_t> samples = {0, 0, 0, 1, 2, 4, 8, 16, 1, 1, 1, 2};
  const PowerLawFit fit = FitPowerLawAt(samples, 1);
  EXPECT_EQ(fit.total_count, 9u);
  EXPECT_EQ(fit.tail_count, 9u);
}

// Both fitters read only the multiset of positive samples, so callers may
// pass counts in hash-table order and keep zero counts in place.
TEST(PowerLawTest, FitIsInvariantToSampleOrder) {
  const auto samples = SyntheticPowerLaw(1.8, 5000, 100'000, 41);
  const auto expect_same = [](const PowerLawFit& a, const PowerLawFit& b) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.alpha),
              std::bit_cast<std::uint64_t>(b.alpha));
    EXPECT_EQ(a.xmin, b.xmin);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.ks_distance),
              std::bit_cast<std::uint64_t>(b.ks_distance));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.alpha_stderr),
              std::bit_cast<std::uint64_t>(b.alpha_stderr));
    EXPECT_EQ(a.tail_count, b.tail_count);
    EXPECT_EQ(a.total_count, b.total_count);
  };
  const PowerLawFit fit = FitPowerLaw(samples);
  const PowerLawFit fit_at = FitPowerLawAt(samples, 3);
  ASSERT_TRUE(fit.Valid());
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::vector<std::uint64_t> shuffled = samples;
    shuffled.resize(samples.size() + 1000 * seed, 0);
    Rng rng(seed);
    for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
      std::swap(shuffled[i], shuffled[rng.UniformInt(std::uint64_t{i + 1})]);
    }
    expect_same(FitPowerLaw(shuffled), fit);
    expect_same(FitPowerLawAt(shuffled, 3), fit_at);
  }
}

TEST(PowerLawFitTest, DegenerateInputs) {
  EXPECT_FALSE(FitPowerLawAt({}, 1).Valid());
  const std::vector<std::uint64_t> one = {5};
  EXPECT_FALSE(FitPowerLawAt(one, 1).Valid());
  const std::vector<std::uint64_t> constant(100, 3);
  // All-equal data drives the MLE to the search boundary: no interior
  // optimum exists, so the fit is reported invalid.
  EXPECT_FALSE(FitPowerLawAt(constant, 3).Valid());
}

TEST(PowerLawCdfTest, MonotoneAndNormalized) {
  PowerLawFit fit;
  fit.alpha = 2.5;
  fit.xmin = 1;
  fit.tail_count = 100;
  double prev = -1.0;
  for (std::uint64_t k = 1; k <= 1000; k *= 2) {
    const double cdf = PowerLawCdf(fit, k);
    EXPECT_GE(cdf, prev);
    EXPECT_GE(cdf, 0.0);
    EXPECT_LE(cdf, 1.0);
    prev = cdf;
  }
  EXPECT_GT(PowerLawCdf(fit, 100000), 0.999);
  EXPECT_DOUBLE_EQ(PowerLawCdf(fit, 0), 0.0);
}

TEST(PowerLawCdfTest, MassAtXmin) {
  PowerLawFit fit;
  fit.alpha = 2.0;
  fit.xmin = 1;
  // P(X = 1) for zeta(2) law = 1/zeta(2) ~ 0.6079.
  EXPECT_NEAR(PowerLawCdf(fit, 1), 0.6079, 0.001);
}

TEST(PowerLawFitTest, GeometricDataFitsWorseThanPowerLaw) {
  // Exponentially-distributed counts should yield a clearly larger KS
  // distance than genuine power-law data of the same size.
  Rng rng(31);
  std::vector<std::uint64_t> geometric;
  for (int i = 0; i < 10000; ++i) {
    geometric.push_back(1 + static_cast<std::uint64_t>(rng.Exponential(0.2)));
  }
  const PowerLawFit geo_fit = FitPowerLawAt(geometric, 1);
  const auto pl = SyntheticPowerLaw(2.0, 10000, 100'000, 32);
  const PowerLawFit pl_fit = FitPowerLawAt(pl, 1);
  EXPECT_GT(geo_fit.ks_distance, 2.0 * pl_fit.ks_distance);
}

}  // namespace
}  // namespace astra::stats
