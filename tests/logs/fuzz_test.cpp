// Robustness properties of the log parsers: byte-level mutations of valid
// lines must never crash, and whatever parses must satisfy the record
// invariants.  Real syslog extracts contain truncation, corruption and
// encoding damage; §2.2's "we exclude these data points" only works if the
// ingest layer survives them.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "logs/log_file.hpp"
#include "logs/serialize.hpp"
#include "scratch_path.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace astra::logs {
namespace {

MemoryErrorRecord TemplateRecord() {
  MemoryErrorRecord r;
  r.timestamp = SimTime::FromCivil(2019, 6, 15, 12, 34, 56);
  r.node = 1000;
  r.slot = DimmSlot::M;
  r.socket = SocketOfSlot(r.slot);
  r.rank = 1;
  r.bank = 9;
  r.bit_position = EncodeRecordedBit(33, 1);
  r.physical_address = 0x1abcdef012ULL;
  r.syndrome = 0xcafef00d;
  return r;
}

std::string Mutate(std::string line, Rng& rng) {
  if (line.empty()) return line;
  const int op = static_cast<int>(rng.UniformInt(std::uint64_t{4}));
  const std::size_t pos = rng.UniformInt(line.size());
  switch (op) {
    case 0:  // flip a byte to an arbitrary value (including NUL-ish range)
      line[pos] = static_cast<char>(1 + rng.UniformInt(std::uint64_t{254}));
      break;
    case 1:  // delete a byte
      line.erase(pos, 1);
      break;
    case 2:  // duplicate a byte
      line.insert(pos, 1, line[pos]);
      break;
    case 3:  // truncate
      line.resize(pos);
      break;
  }
  return line;
}

// Invariants any successfully parsed record must satisfy.
void CheckInvariants(const MemoryErrorRecord& r) {
  EXPECT_GE(r.node, 0);
  EXPECT_LT(r.node, kNumNodes);
  EXPECT_EQ(SocketOfSlot(r.slot), r.socket);
  EXPECT_GE(r.rank, 0);
  EXPECT_LT(r.rank, kRanksPerDimm);
  EXPECT_GE(r.bank, 0);
  EXPECT_LT(r.bank, kBanksPerRank);
  EXPECT_TRUE(r.row == kNoRowInfo || (r.row >= 0 && r.row < kRowsPerBank));
}

// Reference scalar parser: the pre-SWAR ParseMemoryError, verbatim in
// structure — heap-allocating SplitView plus the from_chars-backed numeric
// helpers.  The production parser replaced the mechanics (ScanFields,
// ParseDecimalI64/ParseHexU64) but must accept and reject the exact same
// language; the parity fuzz below holds the two against each other.
std::optional<MemoryErrorRecord> ReferenceParseMemoryError(
    std::string_view line) {
  const auto fields = SplitView(line, '\t');
  if (fields.size() != 11) return std::nullopt;

  MemoryErrorRecord r;
  SimTime ts;
  if (!SimTime::Parse(fields[0], ts)) return std::nullopt;
  const auto node = ParseInt64(fields[1]);
  const auto socket = ParseInt64(fields[2]);
  const auto type = FailureTypeFromName(fields[3]);
  if (!node || *node < 0 || *node >= kNumNodes) return std::nullopt;
  if (!socket || !type) return std::nullopt;
  if (*socket < 0 || *socket >= kSocketsPerNode) return std::nullopt;
  if (fields[4].size() != 1) return std::nullopt;
  const auto slot = DimmSlotFromLetter(fields[4][0]);
  if (!slot || SocketOfSlot(*slot) != *socket) return std::nullopt;

  r.timestamp = ts;
  r.node = static_cast<NodeId>(*node);
  r.socket = static_cast<SocketId>(*socket);
  r.type = *type;
  r.slot = *slot;

  if (fields[5] == "-") {
    r.row = kNoRowInfo;
  } else {
    const auto row = ParseInt64(fields[5]);
    if (!row || *row < 0 || *row >= kRowsPerBank) return std::nullopt;
    r.row = static_cast<std::int32_t>(*row);
  }

  const auto rank = ParseInt64(fields[6]);
  const auto bank = ParseInt64(fields[7]);
  const auto bit = ParseInt64(fields[8]);
  const auto addr = ParseUint64(fields[9], 16);
  const auto syndrome = ParseUint64(fields[10], 16);
  if (!rank || !bank || !bit || !addr || !syndrome) return std::nullopt;
  if (*rank < 0 || *rank >= kRanksPerDimm) return std::nullopt;
  if (*bank < 0 || *bank >= kBanksPerRank) return std::nullopt;
  if (*bit < 0 || *bit > 0x3FF) return std::nullopt;

  r.rank = static_cast<RankId>(*rank);
  r.bank = static_cast<BankId>(*bank);
  r.bit_position = static_cast<std::int32_t>(*bit);
  r.physical_address = *addr;
  r.syndrome = static_cast<std::uint32_t>(*syndrome);
  return r;
}

class FuzzSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeedTest, MutatedMemoryErrorLinesNeverCrash) {
  Rng rng(GetParam());
  const std::string base = FormatRecord(TemplateRecord());
  int parsed = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string line = base;
    const int mutations = 1 + static_cast<int>(rng.UniformInt(std::uint64_t{4}));
    for (int m = 0; m < mutations; ++m) line = Mutate(std::move(line), rng);
    if (const auto record = ParseMemoryError(line)) {
      ++parsed;
      CheckInvariants(*record);
    }
  }
  // Most mutations must be rejected (the format is not accept-everything).
  EXPECT_LT(parsed, 3000);
}

TEST_P(FuzzSeedTest, SwarParserParityWithScalarReference) {
  // The SWAR fast path and the scalar reference must agree on every mutated
  // line: same accept/reject decision, and identical records when accepted.
  Rng rng(GetParam() ^ 0x50a7);
  const std::string base = FormatRecord(TemplateRecord());
  int accepted = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string line = base;
    const int mutations = 1 + static_cast<int>(rng.UniformInt(std::uint64_t{4}));
    for (int m = 0; m < mutations; ++m) line = Mutate(std::move(line), rng);
    const auto fast = ParseMemoryError(line);
    const auto reference = ReferenceParseMemoryError(line);
    ASSERT_EQ(fast.has_value(), reference.has_value())
        << "trial " << trial << " line: " << line;
    if (fast) {
      ++accepted;
      EXPECT_TRUE(*fast == *reference) << "trial " << trial << " line: " << line;
    }
  }
  // The unmutated base line itself must parse identically too.
  const auto fast = ParseMemoryError(base);
  const auto reference = ReferenceParseMemoryError(base);
  ASSERT_TRUE(fast && reference);
  EXPECT_TRUE(*fast == *reference);
  (void)accepted;
}

TEST_P(FuzzSeedTest, MutatedSensorAndHetLinesNeverCrash) {
  Rng rng(GetParam() ^ 0x5e);
  SensorRecord sensor;
  sensor.timestamp = SimTime::FromCivil(2019, 7, 1);
  sensor.node = 5;
  sensor.sensor = SensorKind::kDcPower;
  sensor.valid = true;
  sensor.value = 301.25;
  HetRecord het;
  het.timestamp = SimTime::FromCivil(2019, 9, 1);
  het.node = 9;
  het.event = HetEventType::kUncorrectableEcc;
  het.severity = HetSeverity::kNonRecoverable;
  het.socket = 1;
  het.slot = 12;

  for (const std::string& base : {FormatRecord(sensor), FormatRecord(het)}) {
    for (int trial = 0; trial < 2000; ++trial) {
      std::string line = base;
      for (int m = 0; m < 3; ++m) line = Mutate(std::move(line), rng);
      (void)ParseSensor(line);
      (void)ParseHet(line);
      (void)ParseInventory(line);
    }
  }
  SUCCEED();
}

TEST_P(FuzzSeedTest, MutatedInventoryLinesNeverCrash) {
  Rng rng(GetParam() ^ 0x17c);
  InventoryRecord inventory;
  inventory.scan_date = SimTime::FromCivil(2019, 8, 20);
  inventory.site.kind = ComponentKind::kDimm;
  inventory.site.node = 321;
  inventory.site.index = 7;
  inventory.serial = 0x00facefeedULL;

  const std::string base = FormatRecord(inventory);
  int parsed = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string line = base;
    const int mutations = 1 + static_cast<int>(rng.UniformInt(std::uint64_t{4}));
    for (int m = 0; m < mutations; ++m) line = Mutate(std::move(line), rng);
    if (const auto record = ParseInventory(line)) {
      ++parsed;
      EXPECT_GE(record->site.node, 0);
      EXPECT_LT(record->site.node, kNumNodes);
      EXPECT_GE(record->site.index, 0);
    }
  }
  EXPECT_LT(parsed, 3000);
}

// Full-file fuzzing: mutate a whole dataset file at the byte level and push
// it through the hardened reader.  No input may crash the ingest, and the
// accounting invariant parsed + malformed == total_lines must always hold.
TEST_P(FuzzSeedTest, MutatedWholeFilesIngestWithFullAccounting) {
  Rng rng(GetParam() ^ 0xf11e);
  const std::string dir = ScratchPath("astra_fuzz_file");
  std::filesystem::create_directories(dir);
  const std::string path =
      dir + "/fuzz_" + std::to_string(GetParam()) + ".tsv";

  // A valid base file: header + 50 ordered records.
  std::string base(MemoryErrorHeader());
  base += '\n';
  for (int i = 0; i < 50; ++i) {
    MemoryErrorRecord r = TemplateRecord();
    r.timestamp = r.timestamp.AddSeconds(i * 30);
    r.node = static_cast<NodeId>(i % 40);
    base += FormatRecord(r);
    base += '\n';
  }

  for (int trial = 0; trial < 60; ++trial) {
    std::string content = base;
    const int mutations = 1 + static_cast<int>(rng.UniformInt(std::uint64_t{40}));
    for (int m = 0; m < mutations && !content.empty(); ++m) {
      const std::size_t pos = rng.UniformInt(content.size());
      switch (static_cast<int>(rng.UniformInt(std::uint64_t{4}))) {
        case 0:  // flip to any byte, newlines included (splices lines)
          content[pos] = static_cast<char>(rng.UniformInt(std::uint64_t{256}));
          break;
        case 1:
          content.erase(pos, 1 + rng.UniformInt(std::uint64_t{8}));
          break;
        case 2:
          content.insert(pos, 1, static_cast<char>(rng.UniformInt(std::uint64_t{256})));
          break;
        case 3:
          content.resize(pos);
          break;
      }
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << content;
    }

    IngestReport report;
    const auto records =
        IngestAllRecords<MemoryErrorRecord>(path, IngestPolicy{}, 1, &report);
    ASSERT_TRUE(records.has_value());
    EXPECT_EQ(report.stats.parsed + report.stats.malformed,
              report.stats.total_lines)
        << "trial " << trial;
    EXPECT_TRUE(report.Consistent()) << "trial " << trial;
    EXPECT_EQ(records->size(), report.Delivered()) << "trial " << trial;
    for (const auto& record : *records) CheckInvariants(record);
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL, 7ULL,
                                           8ULL));

TEST(FuzzCorpusTest, PathologicalLinesRejectedCleanly) {
  const char* corpus[] = {
      "\t\t\t\t\t\t\t\t\t\t",
      "2019-06-15 12:34:56\t\t\t\t\t\t\t\t\t\t",
      "9999999999999999999999\t0\t0\tCE\tA\t-\t0\t0\t0\t0x0\t0x0",
      "2019-06-15 12:34:56\t-1\t0\tCE\tA\t-\t0\t0\t0\t0x0\t0x0",
      "2019-06-15 12:34:56\t0\t0\tCE\tA\t-\t0\t0\t-7\t0x0\t0x0",
      "2019-06-15 12:34:56\t0\t0\tCE\tA\t99999999\t0\t0\t0\t0x0\t0x0",
      "\xff\xfe\xfd",
      "CE CE CE CE CE CE CE CE CE CE CE",
  };
  for (const char* line : corpus) {
    EXPECT_FALSE(ParseMemoryError(line).has_value()) << line;
  }
}

}  // namespace
}  // namespace astra::logs
