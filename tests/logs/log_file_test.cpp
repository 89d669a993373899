#include "logs/log_file.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "scratch_path.hpp"

namespace astra::logs {
namespace {

class LogFileTest : public ::testing::Test {
 protected:
  void SetUp() override { path_ = ScratchPath("astra_log_file_test") + ".tsv"; }
  void TearDown() override { std::remove(path_.c_str()); }

  static MemoryErrorRecord MakeRecord(int i) {
    MemoryErrorRecord r;
    r.timestamp = SimTime::FromCivil(2019, 4, 1).AddMinutes(i);
    r.node = i % kNumNodes;
    r.slot = static_cast<DimmSlot>(i % kDimmSlotCount);
    r.socket = SocketOfSlot(r.slot);
    r.rank = static_cast<RankId>(i % 2);
    r.bank = static_cast<BankId>(i % kBanksPerRank);
    r.bit_position = i % 72;
    r.physical_address = static_cast<std::uint64_t>(i) * 8;
    r.syndrome = static_cast<std::uint32_t>(i);
    return r;
  }

  std::string path_;
};

TEST_F(LogFileTest, WriterProducesHeaderAndRows) {
  {
    LogFileWriter<MemoryErrorRecord> writer(path_);
    ASSERT_TRUE(writer.Ok());
    for (int i = 0; i < 10; ++i) writer.Append(MakeRecord(i));
    EXPECT_EQ(writer.Written(), 10u);
  }
  std::ifstream in(path_);
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first, MemoryErrorHeader());
}

TEST_F(LogFileTest, RoundTripAllRecords) {
  {
    LogFileWriter<MemoryErrorRecord> writer(path_);
    for (int i = 0; i < 100; ++i) writer.Append(MakeRecord(i));
  }
  IngestReport report;
  const auto records =
      IngestAllRecords<MemoryErrorRecord>(path_, IngestPolicy::Raw(), 1, &report);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 100u);
  EXPECT_EQ(report.stats.parsed, 100u);
  EXPECT_EQ(report.stats.malformed, 0u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ((*records)[static_cast<std::size_t>(i)], MakeRecord(i));
  }
}

TEST_F(LogFileTest, MalformedLinesCountedNotFatal) {
  {
    std::ofstream out(path_);
    out << MemoryErrorHeader() << '\n';
    out << FormatRecord(MakeRecord(1)) << '\n';
    out << "this line is garbage\n";
    out << FormatRecord(MakeRecord(2)) << '\n';
    out << "another\tbad\tline\n";
  }
  IngestReport report;
  const auto records =
      IngestAllRecords<MemoryErrorRecord>(path_, IngestPolicy::Raw(), 1, &report);
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ(records->size(), 2u);
  EXPECT_EQ(report.stats.malformed, 2u);
  EXPECT_EQ(report.stats.total_lines, 4u);
  EXPECT_DOUBLE_EQ(report.stats.MalformedFraction(), 0.5);
}

TEST_F(LogFileTest, HeaderlessFileStillParses) {
  {
    std::ofstream out(path_);
    out << FormatRecord(MakeRecord(5)) << '\n';
  }
  const auto records = IngestAllRecords<MemoryErrorRecord>(path_, IngestPolicy::Raw(), 1);
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ(records->size(), 1u);
}

TEST_F(LogFileTest, EmptyLinesSkipped) {
  {
    std::ofstream out(path_);
    out << MemoryErrorHeader() << "\n\n\n" << FormatRecord(MakeRecord(3)) << "\n\n";
  }
  IngestReport report;
  const auto records =
      IngestAllRecords<MemoryErrorRecord>(path_, IngestPolicy::Raw(), 1, &report);
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ(records->size(), 1u);
  EXPECT_EQ(report.stats.malformed, 0u);
}

TEST_F(LogFileTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(
      IngestAllRecords<MemoryErrorRecord>("/no/such/file.tsv", IngestPolicy::Raw(), 1)
          .has_value());
}

TEST_F(LogFileTest, StreamingSinkEarlyRecordsVisible) {
  {
    LogFileWriter<HetRecord> writer(path_);
    HetRecord r;
    r.timestamp = SimTime::FromCivil(2019, 9, 1);
    r.node = 1;
    r.event = HetEventType::kUncorrectableEcc;
    r.severity = HetSeverity::kNonRecoverable;
    writer.Append(r);
    r.node = 2;
    writer.Append(r);
  }
  const auto records = IngestAllRecords<HetRecord>(path_, IngestPolicy::Raw(), 1);
  ASSERT_TRUE(records.has_value());
  std::vector<NodeId> nodes;
  for (const auto& r : *records) nodes.push_back(r.node);
  EXPECT_EQ(nodes, (std::vector<NodeId>{1, 2}));
}

TEST_F(LogFileTest, SensorRecordsRoundTrip) {
  {
    LogFileWriter<SensorRecord> writer(path_);
    SensorRecord r;
    r.timestamp = SimTime::FromCivil(2019, 5, 20, 10, 30, 0);
    r.node = 9;
    r.sensor = SensorKind::kDcPower;
    r.valid = true;
    r.value = 312.5;
    writer.Append(r);
    r.valid = false;
    writer.Append(r);
  }
  const auto records = IngestAllRecords<SensorRecord>(path_, IngestPolicy::Raw(), 1);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_TRUE((*records)[0].valid);
  EXPECT_FALSE((*records)[1].valid);
}

}  // namespace
}  // namespace astra::logs
