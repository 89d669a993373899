// Sharded batch ingest: the same records in the same order, the same
// quarantine/dedup/re-sort accounting, the same repair log and the same
// strict-mode abort point at every shard count as the line-by-line tail
// reader (stream::TailReader) driven to Finish over the same bytes.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "corrupted_stream.hpp"
#include "logs/log_file.hpp"
#include "logs/serialize.hpp"
#include "scratch_path.hpp"
#include "stream/tail_reader.hpp"
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

void ExpectReportsEqual(const IngestReport& tail, const IngestReport& sharded) {
  EXPECT_EQ(tail.stats.total_lines, sharded.stats.total_lines);
  EXPECT_EQ(tail.stats.parsed, sharded.stats.parsed);
  EXPECT_EQ(tail.stats.malformed, sharded.stats.malformed);
  EXPECT_EQ(tail.malformed_by_reason, sharded.malformed_by_reason);
  EXPECT_EQ(tail.duplicates_removed, sharded.duplicates_removed);
  EXPECT_EQ(tail.out_of_order_seen, sharded.out_of_order_seen);
  EXPECT_EQ(tail.reordered, sharded.reordered);
  EXPECT_EQ(tail.order_violations, sharded.order_violations);
  EXPECT_EQ(tail.header_remapped, sharded.header_remapped);
  EXPECT_EQ(tail.budget_exceeded, sharded.budget_exceeded);
  EXPECT_EQ(tail.aborted, sharded.aborted);
  EXPECT_EQ(tail.repairs, sharded.repairs);
  EXPECT_TRUE(sharded.Consistent());
}

class ParallelIngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestScratchPath("astra_parallel_ingest_test_");
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/stream.tsv";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void WriteLines(const std::vector<std::string>& lines) {
    std::ofstream out(path_);
    for (const auto& line : lines) out << line << '\n';
  }

  void WriteBytes(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary);
    out << bytes;
  }

  // The reference: a fresh tail reader driven straight to Finish feeds the
  // machine every line of the file, one at a time, in file order.
  std::vector<MemoryErrorRecord> TailIngest(const IngestPolicy& policy,
                                            IngestReport& report) const {
    std::vector<MemoryErrorRecord> records;
    stream::TailReader<MemoryErrorRecord> reader(path_, policy);
    reader.Finish([&records](const MemoryErrorRecord& r) { records.push_back(r); });
    report = reader.Report();
    return records;
  }

  // The core assertion: the sharded reader is indistinguishable from the
  // line-by-line one at every shard count in `shard_counts`.
  void ExpectMatchesTail(const IngestPolicy& policy,
                         std::initializer_list<unsigned> shard_counts = {1, 2, 3, 8}) {
    IngestReport tail_report;
    const auto tail = TailIngest(policy, tail_report);
    for (const unsigned shards : shard_counts) {
      IngestReport sharded_report;
      const auto sharded =
          IngestAllRecords<MemoryErrorRecord>(path_, policy, shards, &sharded_report);
      ASSERT_TRUE(sharded.has_value()) << shards << " shards";
      EXPECT_EQ(tail, *sharded) << shards << " shards";
      ExpectReportsEqual(tail_report, sharded_report);
    }
  }

  std::string dir_;
  std::string path_;
};

TEST_F(ParallelIngestTest, CleanSortedFile) {
  std::vector<std::string> lines{std::string(MemoryErrorHeader())};
  for (int i = 0; i < 2000; ++i) lines.push_back(FormatRecord(MakeRecord(i * 60)));
  WriteLines(lines);
  ExpectMatchesTail(IngestPolicy{});
}

TEST_F(ParallelIngestTest, MissingHeaderTreatsFirstLineAsData) {
  std::vector<std::string> lines;
  for (int i = 0; i < 2000; ++i) lines.push_back(FormatRecord(MakeRecord(i * 60)));
  WriteLines(lines);
  ExpectMatchesTail(IngestPolicy{});
}

TEST_F(ParallelIngestTest, DirtyMixOfDamage) {
  // Malformed lines, exact duplicates, small out-of-order jitter (repairable
  // within the window) and far stragglers (order violations) — all at once.
  std::vector<std::string> lines{std::string(MemoryErrorHeader())};
  for (int i = 0; i < 2500; ++i) {
    std::int64_t offset = i * 60;
    if (i % 13 == 0) offset -= 300;    // within the reorder window
    if (i % 411 == 0) offset -= 90000; // far behind: delivered out of order
    lines.push_back(FormatRecord(MakeRecord(offset)));
    if (i % 97 == 0) lines.push_back(lines.back());  // exact duplicate
    if (i % 50 == 0) lines.push_back("this line is structurally hopeless");
    if (i % 73 == 0) {
      lines.push_back(
          "not-a-time\t3\t0\tCE\tC\t-\t1\t4\t529\t0xdeadbeef\t0x1234");
    }
  }
  IngestPolicy policy;
  policy.reorder_window_seconds = 600;
  WriteLines(lines);
  ExpectMatchesTail(policy);
}

TEST_F(ParallelIngestTest, DriftedHeaderRemapsIdentically) {
  // node and timestamp swapped: every data line needs column projection.
  std::vector<std::string> lines{
      "node\ttimestamp\tsocket\ttype\tslot\trow\trank\tbank\tbit\tphysaddr"
      "\tsyndrome"};
  for (int i = 0; i < 2000; ++i) {
    const std::string canonical = FormatRecord(MakeRecord(i * 60));
    const auto fields = SplitView(canonical, '\t');
    std::string drifted(fields[1]);
    drifted += '\t';
    drifted += fields[0];
    for (std::size_t f = 2; f < fields.size(); ++f) {
      drifted += '\t';
      drifted += fields[f];
    }
    lines.push_back(drifted);
  }
  WriteLines(lines);
  ExpectMatchesTail(IngestPolicy{});

  IngestReport report;
  const auto records =
      IngestAllRecords<MemoryErrorRecord>(path_, IngestPolicy{}, 8, &report);
  ASSERT_TRUE(records.has_value());
  EXPECT_TRUE(report.header_remapped);
  EXPECT_EQ(records->front(), MakeRecord(0));
}

TEST_F(ParallelIngestTest, EveryCorruptionModeMatchesSerial) {
  // Each corruption mode at severity 0.25, as `astra-mrt corrupt` leaves the
  // stream.  Under this seed the header drift permutes the columns and adds
  // one, so every data line goes through the projection.
  for (int m = 0; m < kCorruptionModeCount; ++m) {
    const auto mode = static_cast<CorruptionMode>(m);
    SCOPED_TRACE(std::string(CorruptionModeName(mode)));
    const auto bytes = testdata::CorruptedMemoryStream(4000, mode, 0.25, 28, path_);
    ASSERT_TRUE(bytes.has_value());
    ExpectMatchesTail(IngestPolicy{});
    ExpectMatchesTail(IngestPolicy::Strict(0.01));

    IngestReport report;
    ASSERT_TRUE(IngestAllRecords<MemoryErrorRecord>(path_, IngestPolicy{}, 1, &report));
    if (mode == CorruptionMode::kHeaderDrift) {
      ASSERT_FALSE(report.repairs.empty());
      EXPECT_EQ(report.repairs.front(),
                "remapped drifted header (column order) back to canonical schema");
    }
  }
}

TEST_F(ParallelIngestTest, StrictAbortStopsAtTheSameLine) {
  // 20% malformed against a 5% budget: strict mode must abort, and the
  // abort line (hence total_lines and the delivered prefix) must not depend
  // on the thread count.
  std::vector<std::string> lines{std::string(MemoryErrorHeader())};
  for (int i = 0; i < 2000; ++i) {
    lines.push_back(FormatRecord(MakeRecord(i * 60)));
    if (i % 5 == 0) lines.push_back("garbage\tline");
  }
  IngestPolicy policy;
  policy.mode = IngestPolicy::Mode::kStrict;
  policy.max_malformed_fraction = 0.05;
  WriteLines(lines);
  ExpectMatchesTail(policy);

  IngestReport report;
  const auto records = IngestAllRecords<MemoryErrorRecord>(path_, policy, 8, &report);
  ASSERT_TRUE(records.has_value());
  EXPECT_TRUE(report.aborted);
  EXPECT_TRUE(report.budget_exceeded);
  EXPECT_LT(report.stats.total_lines, 2400u);  // stopped early, not at EOF
}

TEST_F(ParallelIngestTest, LenientBudgetOverrunIsFlaggedNotAborted) {
  std::vector<std::string> lines{std::string(MemoryErrorHeader())};
  for (int i = 0; i < 2000; ++i) {
    lines.push_back(FormatRecord(MakeRecord(i * 60)));
    if (i % 5 == 0) lines.push_back("garbage\tline");
  }
  IngestPolicy policy;  // lenient
  policy.max_malformed_fraction = 0.05;
  WriteLines(lines);
  ExpectMatchesTail(policy);

  IngestReport report;
  const auto records = IngestAllRecords<MemoryErrorRecord>(path_, policy, 4, &report);
  ASSERT_TRUE(records.has_value());
  EXPECT_TRUE(report.budget_exceeded);
  EXPECT_FALSE(report.aborted);
  EXPECT_EQ(records->size(), 2000u);
}

TEST_F(ParallelIngestTest, MoreThreadsThanLinesStillExact) {
  // Shard count far above what the byte range supports: the chunker caps it.
  std::vector<std::string> lines{std::string(MemoryErrorHeader())};
  for (int i = 0; i < 1200; ++i) lines.push_back(FormatRecord(MakeRecord(i * 60)));
  WriteLines(lines);
  ExpectMatchesTail(IngestPolicy{}, {64});
}

// Small files, down to none at all: one shard, a few, and more shards than
// lines all agree with the line-by-line reader.
constexpr std::initializer_list<unsigned> kSmallShardCounts = {1, 2, 8};

TEST_F(ParallelIngestTest, SmallEmptyFile) {
  WriteBytes("");
  ExpectMatchesTail(IngestPolicy{}, kSmallShardCounts);
  IngestReport report;
  const auto records =
      IngestAllRecords<MemoryErrorRecord>(path_, IngestPolicy{}, 8, &report);
  ASSERT_TRUE(records.has_value());
  EXPECT_TRUE(records->empty());
  EXPECT_EQ(report.stats.total_lines, 0u);
}

TEST_F(ParallelIngestTest, SmallHeaderOnly) {
  WriteBytes(std::string(MemoryErrorHeader()) + "\n");
  ExpectMatchesTail(IngestPolicy{}, kSmallShardCounts);
  WriteBytes(std::string(MemoryErrorHeader()));  // no terminator either
  ExpectMatchesTail(IngestPolicy{}, kSmallShardCounts);
}

TEST_F(ParallelIngestTest, SmallBlankFirstLine) {
  // A blank first line is no header: the canonical header on line 2 is then
  // a repeated header, and carries no data.
  WriteLines({"", std::string(MemoryErrorHeader()), FormatRecord(MakeRecord(0)),
              FormatRecord(MakeRecord(60))});
  ExpectMatchesTail(IngestPolicy{}, kSmallShardCounts);
}

TEST_F(ParallelIngestTest, SmallUnterminatedLastLine) {
  WriteBytes(std::string(MemoryErrorHeader()) + "\n" + FormatRecord(MakeRecord(0)) +
             "\n" + FormatRecord(MakeRecord(60)));
  ExpectMatchesTail(IngestPolicy{}, kSmallShardCounts);
  IngestReport report;
  const auto records =
      IngestAllRecords<MemoryErrorRecord>(path_, IngestPolicy{}, 2, &report);
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ(records->size(), 2u);
}

TEST_F(ParallelIngestTest, SmallCrlfLines) {
  std::string bytes = std::string(MemoryErrorHeader()) + "\r\n";
  for (int i = 0; i < 5; ++i) bytes += FormatRecord(MakeRecord(i * 60)) + "\r\n";
  bytes += "garbage\tline\r\n";
  WriteBytes(bytes);
  ExpectMatchesTail(IngestPolicy{}, kSmallShardCounts);
  IngestReport report;
  const auto records =
      IngestAllRecords<MemoryErrorRecord>(path_, IngestPolicy{}, 8, &report);
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ(records->size(), 5u);
  EXPECT_EQ(report.stats.malformed, 1u);
}

TEST_F(ParallelIngestTest, SmallDriftedHeaderThreeLines) {
  // A drifted header (an alias and one extra column), its repeat, and data.
  const std::string drifted = "ts\tnode\tsocket\ttype\tslot\trow\trank\tbank\tbit"
                              "\tphysaddr\tsyndrome\textra";
  WriteLines({drifted, FormatRecord(MakeRecord(0)) + "\tx", drifted});
  ExpectMatchesTail(IngestPolicy{}, kSmallShardCounts);
  IngestReport report;
  const auto records =
      IngestAllRecords<MemoryErrorRecord>(path_, IngestPolicy{}, 8, &report);
  ASSERT_TRUE(records.has_value());
  EXPECT_TRUE(report.header_remapped);
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ(records->front(), MakeRecord(0));
}

TEST_F(ParallelIngestTest, SmallStrictAbort) {
  // Half the lines malformed against a 5% budget: the abort comes at the end
  // of the strict grace period, in a file of a few KiB.
  std::vector<std::string> lines{std::string(MemoryErrorHeader())};
  for (int i = 0; i < 80; ++i) {
    lines.push_back(FormatRecord(MakeRecord(i * 60)));
    lines.push_back("garbage\tline");
  }
  const IngestPolicy policy = IngestPolicy::Strict(0.05);
  WriteLines(lines);
  ASSERT_LT(std::filesystem::file_size(path_), 64u * 1024);
  ExpectMatchesTail(policy, kSmallShardCounts);
  IngestReport report;
  ASSERT_TRUE(IngestAllRecords<MemoryErrorRecord>(path_, policy, 2, &report));
  EXPECT_TRUE(report.aborted);
  EXPECT_EQ(report.stats.total_lines, IngestPolicy::kBudgetGraceLines);
}

}  // namespace
}  // namespace astra::logs
