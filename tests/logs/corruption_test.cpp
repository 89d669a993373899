// Corruption injector properties: determinism, severity scaling, per-mode
// damage, and the acceptance round trip — any corrupted dataset must ingest
// leniently with full line accounting and reject cleanly under strict mode.
#include "logs/corruption.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "logs/ingest.hpp"
#include "logs/log_file.hpp"
#include "logs/serialize.hpp"
#include "scratch_path.hpp"
#include "util/file_io.hpp"

namespace astra::logs {
namespace {

namespace fs = std::filesystem;

// A small synthetic dataset: several nodes, several days, strictly ordered.
void WriteMemoryErrors(const std::string& path, int lines) {
  LogFileWriter<MemoryErrorRecord> writer(path);
  for (int i = 0; i < lines; ++i) {
    MemoryErrorRecord r;
    r.timestamp = SimTime::FromCivil(2019, 3, 1).AddSeconds(i * 900);
    r.node = static_cast<NodeId>(i % 12);
    r.slot = static_cast<DimmSlot>(i % kDimmSlotsPerNode);
    r.socket = SocketOfSlot(r.slot);
    r.rank = static_cast<RankId>(i % kRanksPerDimm);
    r.bank = static_cast<BankId>(i % kBanksPerRank);
    r.bit_position = EncodeRecordedBit(i % 72, 1);
    r.physical_address = 0x4000ULL + static_cast<std::uint64_t>(i) * 64;
    r.syndrome = static_cast<std::uint32_t>(0xa000 + i);
    writer.Append(r);
  }
  ASSERT_TRUE(writer.Finish());
}

void WriteHetEvents(const std::string& path, int lines) {
  LogFileWriter<HetRecord> writer(path);
  for (int i = 0; i < lines; ++i) {
    HetRecord r;
    r.timestamp = SimTime::FromCivil(2019, 3, 2).AddSeconds(i * 7200);
    r.node = static_cast<NodeId>(i % 8);
    r.event = static_cast<HetEventType>(i % kHetEventTypeCount);
    r.severity = static_cast<HetSeverity>(i % 3);
    r.socket = static_cast<std::int8_t>(i % 2);
    r.slot = static_cast<std::int8_t>(i % 16);
    writer.Append(r);
  }
  ASSERT_TRUE(writer.Finish());
}

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: ctest runs discovered cases in parallel, and a
    // shared directory would let one case's TearDown delete another's files.
    dir_ = TestScratchPath("astra_corruption_test_");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string MakeDataset(const std::string& name, int lines = 400) {
    const std::string sub = dir_ + "/" + name;
    fs::create_directories(sub);
    WriteMemoryErrors(sub + "/memory_errors.tsv", lines);
    WriteHetEvents(sub + "/het_events.tsv", lines / 8);
    return sub;
  }

  std::string dir_;
};

TEST_F(CorruptionTest, SameSeedProducesIdenticalBytes) {
  const std::string a = MakeDataset("a");
  const std::string b = MakeDataset("b");

  CorruptionConfig config;
  config.seed = 42;
  config.SetAll(0.6);
  const CorruptionInjector injector(config);
  ASSERT_TRUE(injector.CorruptDirectory(a).has_value());
  ASSERT_TRUE(injector.CorruptDirectory(b).has_value());

  for (const char* file : {"/memory_errors.tsv", "/het_events.tsv"}) {
    const auto bytes_a = ReadFileBytes(a + file);
    const auto bytes_b = ReadFileBytes(b + file);
    ASSERT_EQ(bytes_a.has_value(), bytes_b.has_value()) << file;
    if (bytes_a) {
      EXPECT_EQ(*bytes_a, *bytes_b) << file;
    }
  }
}

TEST_F(CorruptionTest, DifferentSeedsDiverge) {
  const std::string a = MakeDataset("a");
  const std::string b = MakeDataset("b");
  CorruptionConfig config;
  config.SetAll(0.6);
  config.seed = 1;
  ASSERT_TRUE(CorruptionInjector(config).CorruptDirectory(a).has_value());
  config.seed = 2;
  ASSERT_TRUE(CorruptionInjector(config).CorruptDirectory(b).has_value());
  EXPECT_NE(ReadFileBytes(a + "/memory_errors.tsv"),
            ReadFileBytes(b + "/memory_errors.tsv"));
}

TEST_F(CorruptionTest, ZeroSeverityIsByteExactNoOp) {
  const std::string sub = MakeDataset("a");
  const auto before = ReadFileBytes(sub + "/memory_errors.tsv");
  CorruptionConfig config;  // all severities default to 0
  const auto report = CorruptionInjector(config).CorruptDirectory(sub);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->TotalAffected(), 0u);
  EXPECT_EQ(report->files_corrupted, 0u);
  EXPECT_EQ(ReadFileBytes(sub + "/memory_errors.tsv"), before);
}

TEST_F(CorruptionTest, EveryModeDamagesAtHighSeverity) {
  for (int m = 0; m < kCorruptionModeCount; ++m) {
    const auto mode = static_cast<CorruptionMode>(m);
    // Per-file damage is probabilistic; a handful of seeds makes each mode's
    // trigger overwhelmingly likely while staying deterministic.
    std::uint64_t affected = 0;
    for (std::uint64_t seed = 1; seed <= 5 && affected == 0; ++seed) {
      std::string name = "m";
      name += std::to_string(m) + "s" + std::to_string(seed);
      const std::string sub = MakeDataset(name);
      CorruptionConfig config;
      config.seed = seed;
      config.Set(mode, 1.0);
      const auto report = CorruptionInjector(config).CorruptDirectory(sub);
      ASSERT_TRUE(report.has_value());
      affected = report->AffectedBy(mode) + report->bytes_chopped +
                 report->files_dropped;
    }
    EXPECT_GT(affected, 0u) << "mode " << CorruptionModeName(mode)
                            << " never produced damage";
  }
}

TEST_F(CorruptionTest, MemoryErrorsProtectedFromWholeFileDrop) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::string name = "p";
    name += std::to_string(seed);
    const std::string sub = MakeDataset(name, 60);
    CorruptionConfig config;
    config.seed = seed;
    config.Set(CorruptionMode::kMissingData, 1.0);
    ASSERT_TRUE(CorruptionInjector(config).CorruptDirectory(sub).has_value());
    EXPECT_TRUE(fs::exists(sub + "/memory_errors.tsv")) << "seed " << seed;
  }
}

// The acceptance property: simulate → corrupt (any mode × severity × seed) →
// lenient ingest never crashes and always accounts for every line.
TEST_F(CorruptionTest, RoundTripAccountsForEveryLine) {
  int configurations = 0;
  for (int m = 0; m < kCorruptionModeCount; ++m) {
    for (const double severity : {0.3, 1.0}) {
      for (const std::uint64_t seed : {1ULL, 7ULL}) {
        const std::string sub = MakeDataset(
            "rt" + std::to_string(m) + "_" +
            std::to_string(static_cast<int>(severity * 10)) + "_" +
            std::to_string(seed));
        CorruptionConfig config;
        config.seed = seed;
        config.Set(static_cast<CorruptionMode>(m), severity);
        ASSERT_TRUE(CorruptionInjector(config).CorruptDirectory(sub).has_value());

        IngestReport report;
        const auto records = IngestAllRecords<MemoryErrorRecord>(
            sub + "/memory_errors.tsv", IngestPolicy{}, 1, &report);
        ASSERT_TRUE(records.has_value());
        EXPECT_TRUE(report.Consistent())
            << CorruptionModeName(static_cast<CorruptionMode>(m)) << " sev "
            << severity << " seed " << seed;
        EXPECT_EQ(report.stats.parsed + report.stats.malformed,
                  report.stats.total_lines);
        EXPECT_EQ(records->size(), report.Delivered());
        ++configurations;
      }
    }
  }
  EXPECT_EQ(configurations, kCorruptionModeCount * 2 * 2);
}

TEST_F(CorruptionTest, AllModesAtOnceStillIngests) {
  const std::string sub = MakeDataset("all", 600);
  CorruptionConfig config;
  config.seed = 99;
  config.SetAll(0.9);
  ASSERT_TRUE(CorruptionInjector(config).CorruptDirectory(sub).has_value());

  IngestReport report;
  const auto records = IngestAllRecords<MemoryErrorRecord>(
      sub + "/memory_errors.tsv", IngestPolicy{}, 1, &report);
  ASSERT_TRUE(records.has_value());
  EXPECT_TRUE(report.Consistent());
}

TEST_F(CorruptionTest, StrictRejectsHeavyGarbage) {
  const std::string sub = MakeDataset("strict", 3000);
  CorruptionConfig config;
  config.seed = 5;
  config.Set(CorruptionMode::kEncodingGarbage, 1.0);  // ~13% of lines garbled
  ASSERT_TRUE(CorruptionInjector(config).CorruptDirectory(sub).has_value());

  IngestReport report;
  const auto records = IngestAllRecords<MemoryErrorRecord>(
      sub + "/memory_errors.tsv", IngestPolicy::Strict(0.05), 1, &report);
  ASSERT_TRUE(records.has_value());
  EXPECT_TRUE(report.budget_exceeded);
  EXPECT_TRUE(report.aborted);
  EXPECT_FALSE(report.AcceptedBy(IngestPolicy::Strict(0.05)));
  EXPECT_TRUE(report.Consistent());
}

TEST_F(CorruptionTest, InjectedHeaderDriftStaysRepairable) {
  // The injector and the reader share one alias table, so injected schema
  // drift must always be repairable: no quarantined lines from drift alone.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::string sub = MakeDataset("hd" + std::to_string(seed), 200);
    CorruptionConfig config;
    config.seed = seed;
    config.Set(CorruptionMode::kHeaderDrift, 1.0);
    const auto damage = CorruptionInjector(config).CorruptDirectory(sub);
    ASSERT_TRUE(damage.has_value());

    IngestReport report;
    const auto records = IngestAllRecords<MemoryErrorRecord>(
        sub + "/memory_errors.tsv", IngestPolicy{}, 1, &report);
    ASSERT_TRUE(records.has_value());
    EXPECT_EQ(report.stats.malformed, 0u) << "seed " << seed;
    EXPECT_EQ(records->size(), 200u) << "seed " << seed;
    if (damage->AffectedBy(CorruptionMode::kHeaderDrift) > 0) {
      EXPECT_TRUE(report.header_remapped) << "seed " << seed;
    }
  }
}

TEST_F(CorruptionTest, CorruptFileOnMissingPathFails) {
  CorruptionConfig config;
  config.SetAll(0.5);
  EXPECT_FALSE(CorruptionInjector(config)
                   .CorruptFile(dir_ + "/does_not_exist.tsv")
                   .has_value());
}

}  // namespace
}  // namespace astra::logs
