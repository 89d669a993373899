// Cross-cutting ECC properties, parameterized over flip multiplicity:
// for any k >= 1 distinct flipped bits, neither codec may ever report a
// clean word, and for k = 1 both must fully correct.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ecc/adjudicate.hpp"
#include "util/rng.hpp"

namespace astra::ecc {
namespace {

std::vector<int> DistinctBits(Rng& rng, int k, int universe) {
  std::vector<int> bits;
  while (static_cast<int>(bits.size()) < k) {
    const int bit = static_cast<int>(rng.UniformInt(static_cast<std::uint64_t>(universe)));
    if (std::find(bits.begin(), bits.end(), bit) == bits.end()) bits.push_back(bit);
  }
  return bits;
}

class FlipCountTest : public ::testing::TestWithParam<int> {};

TEST_P(FlipCountTest, SecDedNeverReportsCleanForDistinctFlips) {
  const int k = GetParam();
  Rng rng(100 + static_cast<std::uint64_t>(k));
  for (int trial = 0; trial < 400; ++trial) {
    const std::vector<int> bits = DistinctBits(rng, k, kCodeBits);
    const ErrorOutcome outcome = AdjudicateSecDed(rng(), bits);
    EXPECT_NE(outcome, ErrorOutcome::kClean) << "k=" << k;
    if (k == 1) {
      EXPECT_EQ(outcome, ErrorOutcome::kCorrected);
    }
    if (k == 2) {
      EXPECT_EQ(outcome, ErrorOutcome::kUncorrectable);
    }
  }
}

TEST_P(FlipCountTest, ChipkillNeverReportsCleanForDistinctFlips) {
  const int k = GetParam();
  Rng rng(200 + static_cast<std::uint64_t>(k));
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<BeatBit> flips;
    // Distinct (beat, bit) pairs across the 144-bit word.
    std::vector<int> encoded = DistinctBits(rng, k, 144);
    for (const int e : encoded) flips.push_back({e / 72, e % 72});
    const ErrorOutcome outcome = AdjudicateChipkill(rng(), rng(), flips);
    EXPECT_NE(outcome, ErrorOutcome::kClean) << "k=" << k;
    if (k == 1) {
      EXPECT_EQ(outcome, ErrorOutcome::kCorrected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FlipCounts, FlipCountTest, ::testing::Range(1, 9));

TEST(EccContrastTest, SameDevicePatternsSeparateTheCodes) {
  // Sweep every device and every 2-bit same-device pattern within beat 0:
  // SEC-DED must DUE, chipkill must correct.  Exhaustive, not sampled.
  for (int device = 0; device < 18; ++device) {
    for (int a = 0; a < 4; ++a) {
      for (int b = a + 1; b < 4; ++b) {
        const std::vector<int> bits = {device * 4 + a, device * 4 + b};
        EXPECT_EQ(AdjudicateSecDed(0x123456789abcdef0ULL, bits),
                  ErrorOutcome::kUncorrectable);
        const std::vector<BeatBit> flips = {{0, bits[0]}, {0, bits[1]}};
        EXPECT_EQ(AdjudicateChipkill(0x123456789abcdef0ULL, 42, flips),
                  ErrorOutcome::kCorrected);
      }
    }
  }
}

TEST(EccContrastTest, CrossBeatSameDeviceStillCorrectable) {
  // A device failing in BOTH beats of the burst is still one symbol.
  for (int device = 0; device < 18; ++device) {
    const std::vector<BeatBit> flips = {{0, device * 4}, {1, device * 4 + 3}};
    EXPECT_EQ(AdjudicateChipkill(7, 9, flips), ErrorOutcome::kCorrected) << device;
  }
}

}  // namespace
}  // namespace astra::ecc
