// Hardened ingest layer: header-drift repair, dedup, windowed re-sort,
// malformed accounting, strict/lenient policy and writer failure surfacing.
#include "logs/ingest.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "logs/log_file.hpp"
#include "logs/serialize.hpp"
#include "util/strings.hpp"

namespace astra::logs {
namespace {

MemoryErrorRecord MakeRecord(std::int64_t offset_s, NodeId node = 3) {
  MemoryErrorRecord r;
  r.timestamp = SimTime::FromCivil(2019, 6, 15, 12, 0, 0).AddSeconds(offset_s);
  r.node = node;
  r.slot = DimmSlot::C;
  r.socket = SocketOfSlot(r.slot);
  r.rank = 1;
  r.bank = 4;
  r.bit_position = EncodeRecordedBit(17, 2);
  r.physical_address = 0xdeadbeefULL + static_cast<std::uint64_t>(offset_s);
  r.syndrome = 0x1234;
  return r;
}

class IngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "astra_ingest_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/stream.tsv";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void WriteLines(const std::vector<std::string>& lines) {
    std::ofstream out(path_);
    for (const auto& line : lines) out << line << '\n';
  }

  std::vector<MemoryErrorRecord> Ingest(const IngestPolicy& policy,
                                        IngestReport* report) {
    const auto records =
        IngestAllRecords<MemoryErrorRecord>(path_, policy, report);
    EXPECT_TRUE(records.has_value());
    return records.value_or(std::vector<MemoryErrorRecord>{});
  }

  std::string dir_;
  std::string path_;
};

TEST(ClassifyMalformedTest, DistinguishesReasons) {
  const std::size_t fields = 11;
  EXPECT_EQ(ClassifyMalformed("only\tthree\tfields", fields),
            MalformedReason::kFieldCount);
  EXPECT_EQ(ClassifyMalformed(
                "not-a-time\t0\t0\tCE\tA\t-\t0\t0\t0\t0x0\t0x0", fields),
            MalformedReason::kBadTimestamp);
  EXPECT_EQ(ClassifyMalformed(
                "2019-06-15 12:34:56\t0\t0\tCE\tA\t-\t0\t0\tWAT\t0x0\t0x0",
                fields),
            MalformedReason::kBadFieldValue);
}

TEST(HeaderMapTest, CanonicalHeaderIsIdentity) {
  const auto map = HeaderMap::Build(MemoryErrorHeader(), MemoryErrorHeader());
  ASSERT_TRUE(map.has_value());
  EXPECT_TRUE(map->Identity());
}

TEST(HeaderMapTest, AliasOnlyRenameKeepsOrder) {
  const auto map = HeaderMap::Build(
      MemoryErrorHeader(),
      "ts\tnode_id\tskt\tfailure_type\tdimm_slot\trow\trank\tbank\tbit\taddr\tsynd");
  ASSERT_TRUE(map.has_value());
  EXPECT_TRUE(map->Identity());  // same columns, same order
}

TEST(HeaderMapTest, PermutedColumnsProjectBack) {
  // node and timestamp swapped, syndrome aliased.
  const auto map = HeaderMap::Build(
      MemoryErrorHeader(),
      "node\ttimestamp\tsocket\ttype\tslot\trow\trank\tbank\tbit\tphysaddr\tsynd");
  ASSERT_TRUE(map.has_value());
  EXPECT_FALSE(map->Identity());

  const MemoryErrorRecord original = MakeRecord(0, 7);
  const std::string canonical_line = FormatRecord(original);
  const auto fields = SplitView(canonical_line, '\t');
  // Build the drifted line by swapping the first two fields.
  std::string drifted(fields[1]);
  drifted += '\t';
  drifted += fields[0];
  for (std::size_t i = 2; i < fields.size(); ++i) {
    drifted += '\t';
    drifted += fields[i];
  }
  std::string projected;
  ASSERT_TRUE(map->ProjectLine(drifted, projected));
  const auto parsed = ParseMemoryError(projected);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, original);
}

TEST(HeaderMapTest, UnrecognisableHeaderIsRejected) {
  EXPECT_FALSE(HeaderMap::Build(MemoryErrorHeader(),
                                "2019-06-15 12:34:56\t0\t0\tCE\tA\t-\t0\t0\t0"
                                "\t0x0\t0x0")
                   .has_value());
  EXPECT_FALSE(HeaderMap::Build(MemoryErrorHeader(), "a\tb\tc").has_value());
}

TEST(IngestReportTest, MergeSumsCounterRepairsAndKeepsPerStreamLines) {
  IngestReport a;
  a.repairs.push_back("remapped drifted header (column order) back to canonical schema");
  a.duplicates_removed = 3;
  a.LogCounterRepairs();
  IngestReport b;
  b.duplicates_removed = 4;
  b.reordered = 2;
  b.LogCounterRepairs();
  IngestReport open;  // not closed yet: counters but no repair lines
  open.duplicates_removed = 5;

  IngestReport merged;
  merged.Merge(a);
  merged.Merge(open);
  merged.Merge(b);
  EXPECT_EQ(merged.duplicates_removed, 12u);
  EXPECT_EQ(merged.repairs,
            (std::vector<std::string>{
                "remapped drifted header (column order) back to canonical schema",
                "dropped 7 exact duplicate record(s)",
                "re-sorted 2 out-of-order record(s) within the reorder window"}));
}

TEST_F(IngestTest, CleanFileFullAccounting) {
  std::vector<std::string> lines{std::string(MemoryErrorHeader())};
  for (int i = 0; i < 20; ++i) lines.push_back(FormatRecord(MakeRecord(i * 60)));
  WriteLines(lines);

  IngestReport report;
  const auto records = Ingest(IngestPolicy{}, &report);
  EXPECT_EQ(records.size(), 20u);
  EXPECT_EQ(report.stats.total_lines, 20u);
  EXPECT_EQ(report.stats.parsed, 20u);
  EXPECT_EQ(report.stats.malformed, 0u);
  EXPECT_TRUE(report.Consistent());
  EXPECT_FALSE(report.budget_exceeded);
  EXPECT_TRUE(report.repairs.empty());
}

TEST_F(IngestTest, HeaderlessFileStartsWithData) {
  WriteLines({FormatRecord(MakeRecord(0)), FormatRecord(MakeRecord(60))});
  IngestReport report;
  const auto records = Ingest(IngestPolicy{}, &report);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(report.stats.parsed, 2u);
  EXPECT_TRUE(report.Consistent());
}

TEST_F(IngestTest, ExactDuplicatesDropped) {
  const std::string line = FormatRecord(MakeRecord(0));
  WriteLines({std::string(MemoryErrorHeader()), line, line, line,
              FormatRecord(MakeRecord(60))});
  IngestReport report;
  const auto records = Ingest(IngestPolicy{}, &report);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(report.duplicates_removed, 2u);
  EXPECT_EQ(report.Delivered(), 2u);
  EXPECT_TRUE(report.Consistent());
  EXPECT_FALSE(report.repairs.empty());
}

TEST_F(IngestTest, DedupDisabledKeepsDuplicates) {
  const std::string line = FormatRecord(MakeRecord(0));
  WriteLines({std::string(MemoryErrorHeader()), line, line});
  IngestPolicy policy;
  policy.dedup = false;
  IngestReport report;
  const auto records = Ingest(policy, &report);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(report.duplicates_removed, 0u);
}

TEST_F(IngestTest, WindowedReSortRepairsBoundedDisorder) {
  // 10:00, 10:02, 10:01 — the straggler is within any reasonable window.
  WriteLines({std::string(MemoryErrorHeader()), FormatRecord(MakeRecord(0)),
              FormatRecord(MakeRecord(120)), FormatRecord(MakeRecord(60))});
  IngestReport report;
  const auto records = Ingest(IngestPolicy{}, &report);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_LE(records[0].timestamp, records[1].timestamp);
  EXPECT_LE(records[1].timestamp, records[2].timestamp);
  EXPECT_EQ(report.out_of_order_seen, 1u);
  EXPECT_EQ(report.reordered, 1u);
  EXPECT_EQ(report.order_violations, 0u);
  EXPECT_TRUE(report.Consistent());
}

TEST_F(IngestTest, BeyondWindowCountsAsOrderViolation) {
  IngestPolicy policy;
  policy.reorder_window_seconds = 10;
  // The +100 record forces the re-sort buffer to flush the first record;
  // the -500 straggler then lands behind what was already delivered.
  WriteLines({std::string(MemoryErrorHeader()), FormatRecord(MakeRecord(0)),
              FormatRecord(MakeRecord(100)), FormatRecord(MakeRecord(-500))});
  IngestReport report;
  const auto records = Ingest(policy, &report);
  EXPECT_EQ(records.size(), 3u);
  EXPECT_EQ(report.order_violations, 1u);
  EXPECT_TRUE(report.Consistent());
}

TEST_F(IngestTest, ReorderDisabledDeliversArrivalOrder) {
  IngestPolicy policy;
  policy.reorder_window_seconds = 0;
  WriteLines({std::string(MemoryErrorHeader()), FormatRecord(MakeRecord(120)),
              FormatRecord(MakeRecord(0))});
  IngestReport report;
  const auto records = Ingest(policy, &report);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_GT(records[0].timestamp, records[1].timestamp);
  EXPECT_EQ(report.order_violations, 1u);
}

TEST_F(IngestTest, DriftedHeaderRepairedEndToEnd) {
  const MemoryErrorRecord original = MakeRecord(0, 11);
  const std::string canonical_line = FormatRecord(original);
  const auto fields = SplitView(canonical_line, '\t');
  std::string drifted(fields[1]);
  drifted += '\t';
  drifted += fields[0];
  for (std::size_t i = 2; i < fields.size(); ++i) {
    drifted += '\t';
    drifted += fields[i];
  }
  WriteLines({"node_id\tts\tsocket\ttype\tslot\trow\trank\tbank\tbit\tphysaddr"
              "\tsyndrome",
              drifted});
  IngestReport report;
  const auto records = Ingest(IngestPolicy{}, &report);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], original);
  EXPECT_TRUE(report.header_remapped);
  EXPECT_FALSE(report.repairs.empty());
}

TEST_F(IngestTest, RemapDisabledTreatsDriftedHeaderAsData) {
  IngestPolicy policy = IngestPolicy::Raw();
  WriteLines({"node_id\tts\tsocket\ttype\tslot\trow\trank\tbank\tbit\tphysaddr"
              "\tsyndrome",
              FormatRecord(MakeRecord(0))});
  IngestReport report;
  const auto records = Ingest(policy, &report);
  EXPECT_EQ(records.size(), 1u);
  EXPECT_FALSE(report.header_remapped);
  EXPECT_EQ(report.stats.malformed, 1u);  // the drifted header line
  EXPECT_TRUE(report.Consistent());
}

TEST_F(IngestTest, MalformedReasonBreakdown) {
  WriteLines({std::string(MemoryErrorHeader()),
              FormatRecord(MakeRecord(0)),
              "torn\tline",                                             // field count
              "garbage-time\t0\t0\tCE\tA\t-\t0\t0\t0\t0x0\t0x0",       // timestamp
              "2019-06-15 12:34:56\t0\t0\tCE\tA\t-\t0\t0\tX\t0x0\t0x0"});  // value
  IngestReport report;
  const auto records = Ingest(IngestPolicy{}, &report);
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(report.stats.malformed, 3u);
  EXPECT_EQ(report.malformed_by_reason[static_cast<std::size_t>(
                MalformedReason::kFieldCount)],
            1u);
  EXPECT_EQ(report.malformed_by_reason[static_cast<std::size_t>(
                MalformedReason::kBadTimestamp)],
            1u);
  EXPECT_EQ(report.malformed_by_reason[static_cast<std::size_t>(
                MalformedReason::kBadFieldValue)],
            1u);
  EXPECT_TRUE(report.Consistent());
}

TEST_F(IngestTest, StrictFailsFastOverBudget) {
  std::vector<std::string> lines{std::string(MemoryErrorHeader())};
  for (int i = 0; i < 300; ++i) {
    lines.push_back(i % 2 == 0 ? FormatRecord(MakeRecord(i)) : "###garbage###");
  }
  WriteLines(lines);

  IngestReport report;
  const auto records = Ingest(IngestPolicy::Strict(0.05), &report);
  EXPECT_TRUE(report.aborted);
  EXPECT_TRUE(report.budget_exceeded);
  EXPECT_FALSE(report.AcceptedBy(IngestPolicy::Strict(0.05)));
  EXPECT_LT(report.stats.total_lines, 300u);  // stopped early
  EXPECT_GE(report.stats.total_lines, IngestPolicy::kBudgetGraceLines);
  EXPECT_TRUE(report.Consistent());
  EXPECT_EQ(records.size(), report.Delivered());
}

TEST_F(IngestTest, LenientQuarantinesAndContinues) {
  std::vector<std::string> lines{std::string(MemoryErrorHeader())};
  for (int i = 0; i < 300; ++i) {
    lines.push_back(i % 2 == 0 ? FormatRecord(MakeRecord(i)) : "###garbage###");
  }
  WriteLines(lines);

  IngestReport report;
  const auto records = Ingest(IngestPolicy{}, &report);
  EXPECT_FALSE(report.aborted);
  EXPECT_TRUE(report.budget_exceeded);  // flagged, not fatal
  EXPECT_TRUE(report.AcceptedBy(IngestPolicy{}));
  EXPECT_EQ(report.stats.total_lines, 300u);
  EXPECT_EQ(report.stats.parsed, 150u);
  EXPECT_EQ(report.stats.malformed, 150u);
  EXPECT_EQ(records.size(), 150u);
  EXPECT_TRUE(report.Consistent());
}

TEST_F(IngestTest, MissingFileReturnsNullopt) {
  IngestReport report;
  EXPECT_FALSE(IngestAllRecords<MemoryErrorRecord>(dir_ + "/nope.tsv",
                                                   IngestPolicy{}, &report)
                   .has_value());
}

TEST(LogFileWriterTest, UnwritablePathSurfacesFailure) {
  LogFileWriter<MemoryErrorRecord> writer("/no/such/dir/out.tsv");
  EXPECT_FALSE(writer.Ok());
  writer.Append(MakeRecord(0));  // must be a safe no-op
  EXPECT_EQ(writer.Written(), 0u);
  EXPECT_FALSE(writer.Finish());
}

TEST(LogFileWriterTest, FullDeviceSurfacesFailureOnFinish) {
  // /dev/full accepts the open but fails every flush with ENOSPC — exactly
  // the deferred-failure case Finish() exists to catch.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available";
  }
  LogFileWriter<MemoryErrorRecord> writer("/dev/full");
  for (int i = 0; i < 20000 && writer.Ok(); ++i) writer.Append(MakeRecord(i));
  EXPECT_FALSE(writer.Finish());
  EXPECT_FALSE(writer.Ok());
}

}  // namespace
}  // namespace astra::logs
