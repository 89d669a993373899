// Parallel sharded ingest: byte-identical semantics versus the serial
// hardened reader at every thread count — same records in the same order,
// same quarantine/dedup/re-sort accounting, same repair log, and the same
// strict-mode abort point.
#include "logs/parallel_ingest.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "corrupted_stream.hpp"
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

void ExpectReportsEqual(const IngestReport& serial, const IngestReport& parallel) {
  EXPECT_EQ(serial.stats.total_lines, parallel.stats.total_lines);
  EXPECT_EQ(serial.stats.parsed, parallel.stats.parsed);
  EXPECT_EQ(serial.stats.malformed, parallel.stats.malformed);
  EXPECT_EQ(serial.malformed_by_reason, parallel.malformed_by_reason);
  EXPECT_EQ(serial.duplicates_removed, parallel.duplicates_removed);
  EXPECT_EQ(serial.out_of_order_seen, parallel.out_of_order_seen);
  EXPECT_EQ(serial.reordered, parallel.reordered);
  EXPECT_EQ(serial.order_violations, parallel.order_violations);
  EXPECT_EQ(serial.header_remapped, parallel.header_remapped);
  EXPECT_EQ(serial.budget_exceeded, parallel.budget_exceeded);
  EXPECT_EQ(serial.aborted, parallel.aborted);
  EXPECT_EQ(serial.repairs, parallel.repairs);
  EXPECT_TRUE(parallel.Consistent());
}

class ParallelIngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "astra_parallel_ingest_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/stream.tsv";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void WriteLines(const std::vector<std::string>& lines) {
    std::ofstream out(path_);
    for (const auto& line : lines) out << line << '\n';
    // The file must be large enough to engage the sharded path, not its
    // small-file serial fallback.
    ASSERT_GE(std::filesystem::file_size(path_), kParallelIngestMinBytes);
  }

  // The core assertion: the parallel path is indistinguishable from the
  // serial one at every thread count.
  void ExpectMatchesSerial(const IngestPolicy& policy) {
    IngestReport serial_report;
    const auto serial =
        IngestAllRecords<MemoryErrorRecord>(path_, policy, &serial_report);
    ASSERT_TRUE(serial.has_value());
    for (const unsigned threads : {2u, 3u, 8u}) {
      IngestReport parallel_report;
      const auto parallel = ParallelIngestAllRecords<MemoryErrorRecord>(
          path_, policy, threads, &parallel_report);
      ASSERT_TRUE(parallel.has_value()) << threads << " threads";
      EXPECT_EQ(*serial, *parallel) << threads << " threads";
      ExpectReportsEqual(serial_report, parallel_report);
    }
  }

  std::string dir_;
  std::string path_;
};

TEST_F(ParallelIngestTest, CleanSortedFile) {
  std::vector<std::string> lines{std::string(MemoryErrorHeader())};
  for (int i = 0; i < 2000; ++i) lines.push_back(FormatRecord(MakeRecord(i * 60)));
  WriteLines(lines);
  ExpectMatchesSerial(IngestPolicy{});
}

TEST_F(ParallelIngestTest, MissingHeaderTreatsFirstLineAsData) {
  std::vector<std::string> lines;
  for (int i = 0; i < 2000; ++i) lines.push_back(FormatRecord(MakeRecord(i * 60)));
  WriteLines(lines);
  ExpectMatchesSerial(IngestPolicy{});
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
  ExpectMatchesSerial(policy);
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
  ExpectMatchesSerial(IngestPolicy{});

  IngestReport report;
  const auto records = ParallelIngestAllRecords<MemoryErrorRecord>(
      path_, IngestPolicy{}, 8, &report);
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
    ASSERT_GE(bytes->size(), kParallelIngestMinBytes);
    ExpectMatchesSerial(IngestPolicy{});
    ExpectMatchesSerial(IngestPolicy::Strict(0.01));

    IngestReport report;
    ASSERT_TRUE(IngestAllRecords<MemoryErrorRecord>(path_, IngestPolicy{}, &report));
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
  ExpectMatchesSerial(policy);

  IngestReport report;
  const auto records = ParallelIngestAllRecords<MemoryErrorRecord>(
      path_, policy, 8, &report);
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
  ExpectMatchesSerial(policy);

  IngestReport report;
  const auto records = ParallelIngestAllRecords<MemoryErrorRecord>(
      path_, policy, 4, &report);
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

  IngestReport serial_report;
  const auto serial =
      IngestAllRecords<MemoryErrorRecord>(path_, IngestPolicy{}, &serial_report);
  ASSERT_TRUE(serial.has_value());
  IngestReport parallel_report;
  const auto parallel = ParallelIngestAllRecords<MemoryErrorRecord>(
      path_, IngestPolicy{}, 64, &parallel_report);
  ASSERT_TRUE(parallel.has_value());
  EXPECT_EQ(*serial, *parallel);
  ExpectReportsEqual(serial_report, parallel_report);
}

}  // namespace
}  // namespace astra::logs
