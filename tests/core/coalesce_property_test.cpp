// Property tests for the fault coalescer: order invariance, conservation
// under arbitrary shuffles, and the non-Astra row-decodable path.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/coalesce.hpp"
#include "faultsim/fleet.hpp"
#include "util/rng.hpp"

namespace astra::core {
namespace {

std::vector<logs::MemoryErrorRecord> CampaignRecords(std::uint64_t seed, int nodes) {
  faultsim::CampaignConfig config;
  config.SeedFrom(seed);
  config.node_count = nodes;
  return faultsim::FleetSimulator(config).Run().memory_errors;
}

bool SameFaults(const CoalesceResult& a, const CoalesceResult& b) {
  if (a.faults.size() != b.faults.size()) return false;
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    const auto& fa = a.faults[i];
    const auto& fb = b.faults[i];
    if (fa.node != fb.node || fa.slot != fb.slot || fa.rank != fb.rank ||
        fa.bank != fb.bank || fa.mode != fb.mode ||
        fa.error_count != fb.error_count ||
        fa.distinct_addresses != fb.distinct_addresses ||
        fa.distinct_bits != fb.distinct_bits ||
        fa.first_seen != fb.first_seen || fa.last_seen != fb.last_seen) {
      return false;
    }
  }
  return true;
}

class ShuffleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShuffleTest, RecordOrderDoesNotChangeFaults) {
  std::vector<logs::MemoryErrorRecord> records = CampaignRecords(31, 120);
  const CoalesceResult baseline = FaultCoalescer::Coalesce(records);

  Rng rng(GetParam());
  // Fisher-Yates with our own RNG for determinism.
  for (std::size_t i = records.size(); i > 1; --i) {
    std::swap(records[i - 1], records[rng.UniformInt(i)]);
  }
  const CoalesceResult shuffled = FaultCoalescer::Coalesce(records);
  EXPECT_TRUE(SameFaults(baseline, shuffled));
  EXPECT_EQ(baseline.total_errors, shuffled.total_errors);
}

INSTANTIATE_TEST_SUITE_P(Shuffles, ShuffleTest, ::testing::Values(1ULL, 2ULL, 3ULL));

TEST(CoalescePropertyTest, ConservationUnderSplitting) {
  // Coalescing a prefix and suffix separately can only split faults, never
  // lose errors.
  const auto records = CampaignRecords(32, 100);
  const CoalesceResult whole = FaultCoalescer::Coalesce(records);
  const std::size_t cut = records.size() / 2;
  const CoalesceResult first = FaultCoalescer::Coalesce(
      std::span<const logs::MemoryErrorRecord>(records).subspan(0, cut));
  const CoalesceResult second = FaultCoalescer::Coalesce(
      std::span<const logs::MemoryErrorRecord>(records).subspan(cut));
  EXPECT_EQ(first.total_errors + second.total_errors, whole.total_errors);
  EXPECT_GE(first.faults.size() + second.faults.size(), whole.faults.size());
}

TEST(CoalescePropertyTest, DuplicateRecordsFoldIntoSameFault) {
  const auto records = CampaignRecords(34, 60);
  std::vector<logs::MemoryErrorRecord> doubled = records;
  doubled.insert(doubled.end(), records.begin(), records.end());
  const CoalesceResult once = FaultCoalescer::Coalesce(records);
  const CoalesceResult twice = FaultCoalescer::Coalesce(doubled);
  EXPECT_EQ(once.faults.size(), twice.faults.size());
  EXPECT_EQ(twice.total_errors, 2 * once.total_errors);
}

}  // namespace
}  // namespace astra::core
