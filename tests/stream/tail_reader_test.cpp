// TailReader: the follow-mode ingest must be indistinguishable from the
// batch hardened reader over the final file bytes — same records in the same
// order and the same accounting — no matter how the file grew (chunked
// appends, torn lines, rotation, late file creation) or where a checkpoint
// split the run.
#include "stream/tail_reader.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "../logs/corrupted_stream.hpp"
#include "core/dataset.hpp"
#include "logs/log_file.hpp"
#include "logs/serialize.hpp"
#include "scratch_path.hpp"
#include "stream/monitor.hpp"

namespace astra::stream {
namespace {

using logs::IngestPolicy;
using logs::IngestReport;
using logs::MemoryErrorRecord;

MemoryErrorRecord MakeRecord(std::int64_t offset_s, NodeId node = 3) {
  MemoryErrorRecord r;
  r.timestamp = SimTime::FromCivil(2019, 6, 15, 12, 0, 0).AddSeconds(offset_s);
  r.node = node;
  r.slot = DimmSlot::C;
  r.socket = SocketOfSlot(r.slot);
  r.rank = 1;
  r.bank = 4;
  r.bit_position = logs::EncodeRecordedBit(17, 2);
  r.physical_address = 0xdeadbeefULL + static_cast<std::uint64_t>(offset_s);
  r.syndrome = 0x1234;
  return r;
}

// Immediate delivery: no re-sort buffer holding records back from the sink.
IngestPolicy NoReorder() {
  IngestPolicy policy;
  policy.reorder_window_seconds = 0;
  return policy;
}

void ExpectReportsEqual(const IngestReport& batch, const IngestReport& tail) {
  EXPECT_EQ(batch.stats.total_lines, tail.stats.total_lines);
  EXPECT_EQ(batch.stats.parsed, tail.stats.parsed);
  EXPECT_EQ(batch.stats.malformed, tail.stats.malformed);
  EXPECT_EQ(batch.malformed_by_reason, tail.malformed_by_reason);
  EXPECT_EQ(batch.duplicates_removed, tail.duplicates_removed);
  EXPECT_EQ(batch.out_of_order_seen, tail.out_of_order_seen);
  EXPECT_EQ(batch.reordered, tail.reordered);
  EXPECT_EQ(batch.order_violations, tail.order_violations);
  EXPECT_EQ(batch.header_remapped, tail.header_remapped);
  EXPECT_EQ(batch.budget_exceeded, tail.budget_exceeded);
  EXPECT_EQ(batch.aborted, tail.aborted);
  EXPECT_EQ(batch.repairs, tail.repairs);
}

class TailReaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestScratchPath("astra_tail_reader_test_");
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/stream.tsv";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void Append(const std::string& bytes) {
    std::ofstream out(path_, std::ios::app | std::ios::binary);
    out << bytes;
  }

  // The whole-file dirty payload: header, parseable records, jitter inside
  // the reorder window, far stragglers, duplicates and malformed lines.
  static std::string DirtyPayload() {
    std::string bytes = std::string(logs::MemoryErrorHeader()) + "\n";
    for (int i = 0; i < 600; ++i) {
      std::int64_t offset = i * 60;
      if (i % 13 == 0) offset -= 300;
      if (i % 211 == 0) offset -= 90000;
      const std::string line = logs::FormatRecord(MakeRecord(offset));
      bytes += line + "\n";
      if (i % 97 == 0) bytes += line + "\n";  // exact duplicate
      if (i % 50 == 0) bytes += "structurally hopeless line\n";
    }
    return bytes;
  }

  // Compare the tail reader's final state against the batch reader over the
  // same final bytes.
  void ExpectMatchesBatch(const std::vector<MemoryErrorRecord>& tailed,
                          const IngestReport& tail_report,
                          const IngestPolicy& policy) {
    IngestReport batch_report;
    const auto batch =
        logs::IngestAllRecords<MemoryErrorRecord>(path_, policy, 1, &batch_report);
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(*batch, tailed);
    ExpectReportsEqual(batch_report, tail_report);
  }

  // Resetting a refused restore is the owner's job, not the reader's: a
  // monitor payload starts with the memory reader's state, so `payload` fed
  // to StreamMonitor::Restore must fail and leave the monitor byte for byte
  // a fresh one, reader cursors included.
  void ExpectMonitorRefusesAndStaysFresh(std::string_view payload) {
    const auto paths = core::DatasetPaths::InDirectory(dir_);
    const auto bytes = [](const StreamMonitor& monitor) {
      std::string out;
      binio::Writer writer(out);
      monitor.Snapshot(writer);
      return out;
    };
    StreamMonitor monitor(paths, MonitorConfig{});
    binio::Reader reader(payload);
    EXPECT_FALSE(monitor.Restore(reader));
    EXPECT_EQ(monitor.Delivered(), 0u);
    EXPECT_EQ(bytes(monitor), bytes(StreamMonitor(paths, MonitorConfig{})));
  }

  std::string dir_;
  std::string path_;
};

TEST_F(TailReaderTest, ChunkedGrowthMatchesBatch) {
  const std::string payload = DirtyPayload();
  IngestPolicy policy;
  policy.reorder_window_seconds = 600;
  TailReader<MemoryErrorRecord> reader(path_, policy);
  std::vector<MemoryErrorRecord> tailed;
  const auto sink = [&tailed](const MemoryErrorRecord& r) { tailed.push_back(r); };

  // Grow the file in awkward chunk sizes so polls routinely see torn lines.
  for (std::size_t at = 0; at < payload.size();) {
    const std::size_t chunk = std::min<std::size_t>(257, payload.size() - at);
    Append(payload.substr(at, chunk));
    at += chunk;
    const TailStatus status = reader.Poll(sink);
    EXPECT_TRUE(status == TailStatus::kAdvanced || status == TailStatus::kIdle);
  }
  reader.Finish(sink);
  ExpectMatchesBatch(tailed, reader.Report(), policy);
}

TEST_F(TailReaderTest, TornLineHeldUntilTerminated) {
  Append(std::string(logs::MemoryErrorHeader()) + "\n");
  const std::string line = logs::FormatRecord(MakeRecord(0));
  Append(line.substr(0, line.size() / 2));

  TailReader<MemoryErrorRecord> reader(path_, NoReorder());
  std::vector<MemoryErrorRecord> tailed;
  const auto sink = [&tailed](const MemoryErrorRecord& r) { tailed.push_back(r); };
  ASSERT_EQ(reader.Poll(sink), TailStatus::kAdvanced);  // consumed the header
  EXPECT_TRUE(tailed.empty());
  EXPECT_EQ(reader.Poll(sink), TailStatus::kIdle);  // torn line still pending

  Append(line.substr(line.size() / 2) + "\n");
  EXPECT_EQ(reader.Poll(sink), TailStatus::kAdvanced);
  ASSERT_EQ(tailed.size(), 1u);
  EXPECT_EQ(tailed[0], MakeRecord(0));
}

TEST_F(TailReaderTest, UnterminatedFinalLineConsumedAtFinish) {
  Append(std::string(logs::MemoryErrorHeader()) + "\n" +
         logs::FormatRecord(MakeRecord(0)) + "\n" +
         logs::FormatRecord(MakeRecord(60)));  // no trailing newline

  TailReader<MemoryErrorRecord> reader(path_, NoReorder());
  std::vector<MemoryErrorRecord> tailed;
  const auto sink = [&tailed](const MemoryErrorRecord& r) { tailed.push_back(r); };
  (void)reader.Poll(sink);
  EXPECT_EQ(tailed.size(), 1u);  // the torn tail is not delivered by Poll
  reader.Finish(sink);
  ASSERT_EQ(tailed.size(), 2u);  // getline semantics: Finish visits it
  ExpectMatchesBatch(tailed, reader.Report(), NoReorder());
}

TEST_F(TailReaderTest, MissingFileRetriedUntilItAppears) {
  TailReader<MemoryErrorRecord> reader(path_, NoReorder());
  std::vector<MemoryErrorRecord> tailed;
  const auto sink = [&tailed](const MemoryErrorRecord& r) { tailed.push_back(r); };
  EXPECT_EQ(reader.Poll(sink), TailStatus::kMissing);
  EXPECT_FALSE(reader.SeenFile());

  Append(std::string(logs::MemoryErrorHeader()) + "\n" +
         logs::FormatRecord(MakeRecord(0)) + "\n");
  EXPECT_EQ(reader.Poll(sink), TailStatus::kAdvanced);
  EXPECT_TRUE(reader.SeenFile());
  EXPECT_EQ(tailed.size(), 1u);
}

TEST_F(TailReaderTest, RotationRestartsFileCursorKeepsAccounting) {
  Append(std::string(logs::MemoryErrorHeader()) + "\n" +
         logs::FormatRecord(MakeRecord(0)) + "\n" +
         logs::FormatRecord(MakeRecord(60)) + "\n");
  TailReader<MemoryErrorRecord> reader(path_, NoReorder());
  std::vector<MemoryErrorRecord> tailed;
  const auto sink = [&tailed](const MemoryErrorRecord& r) { tailed.push_back(r); };
  ASSERT_EQ(reader.Poll(sink), TailStatus::kAdvanced);
  EXPECT_EQ(tailed.size(), 2u);

  // The producer rotates: a shorter fresh file, with its own header.
  {
    std::ofstream out(path_, std::ios::trunc | std::ios::binary);
    out << logs::MemoryErrorHeader() << '\n'
        << logs::FormatRecord(MakeRecord(120)) << '\n';
  }
  ASSERT_EQ(reader.Poll(sink), TailStatus::kRotated);
  reader.Finish(sink);
  EXPECT_EQ(reader.Rotations(), 1u);
  ASSERT_EQ(tailed.size(), 3u);
  EXPECT_EQ(tailed[2], MakeRecord(120));
  // The stream-level accounting spans both files.
  EXPECT_EQ(reader.Report().stats.parsed, 3u);
}

TEST_F(TailReaderTest, FinishAfterRotationReadsTheNewFile) {
  // The producer rotates after the last poll: Finish must read the new file
  // and count the rotation, exactly as one more Poll would have.
  const auto file_of = [](int first, int count) {
    std::string bytes = std::string(logs::MemoryErrorHeader()) + "\n";
    for (int i = first; i < first + count; ++i) {
      bytes += logs::FormatRecord(MakeRecord(i * 60)) + "\n";
    }
    return bytes;
  };
  for (const bool poll_after_rotation : {false, true}) {
    SCOPED_TRACE(poll_after_rotation ? "Poll, then Finish" : "Finish only");
    {
      std::ofstream out(path_, std::ios::trunc | std::ios::binary);
      out << file_of(0, 20);
    }
    TailReader<MemoryErrorRecord> reader(path_, NoReorder());
    std::vector<MemoryErrorRecord> tailed;
    const auto sink = [&tailed](const MemoryErrorRecord& r) { tailed.push_back(r); };
    ASSERT_EQ(reader.Poll(sink), TailStatus::kAdvanced);
    ASSERT_EQ(tailed.size(), 20u);

    {
      std::ofstream out(path_, std::ios::trunc | std::ios::binary);
      out << file_of(20, 3);
    }
    if (poll_after_rotation) {
      ASSERT_EQ(reader.Poll(sink), TailStatus::kRotated);
    }
    reader.Finish(sink);
    EXPECT_EQ(reader.Rotations(), 1u);
    ASSERT_EQ(tailed.size(), 23u);
    EXPECT_EQ(tailed.back(), MakeRecord(22 * 60));
    EXPECT_EQ(reader.Report().stats.parsed, 23u);
    EXPECT_EQ(reader.Offset(), file_of(20, 3).size());
  }
}

TEST_F(TailReaderTest, StrictBudgetAbortIsSticky) {
  IngestPolicy policy;
  policy.mode = IngestPolicy::Mode::kStrict;
  policy.max_malformed_fraction = 0.05;
  std::string bytes = std::string(logs::MemoryErrorHeader()) + "\n";
  for (int i = 0; i < 300; ++i) {
    bytes += logs::FormatRecord(MakeRecord(i * 60)) + "\n";
    if (i % 3 == 0) bytes += "garbage line " + std::to_string(i) + "\n";
  }
  Append(bytes);

  TailReader<MemoryErrorRecord> reader(path_, policy);
  std::vector<MemoryErrorRecord> tailed;
  const auto sink = [&tailed](const MemoryErrorRecord& r) { tailed.push_back(r); };
  EXPECT_EQ(reader.Poll(sink), TailStatus::kAborted);
  EXPECT_TRUE(reader.Aborted());
  EXPECT_EQ(reader.Poll(sink), TailStatus::kAborted);  // sticky

  reader.Finish(sink);
  ExpectMatchesBatch(tailed, reader.Report(), policy);
  EXPECT_TRUE(reader.Report().aborted);
  EXPECT_TRUE(reader.Report().budget_exceeded);
}

TEST_F(TailReaderTest, CheckpointMidStreamResumesExactly) {
  const std::string payload = DirtyPayload();
  IngestPolicy policy;
  policy.reorder_window_seconds = 600;

  // Reader A consumes roughly half the file, then checkpoints.
  TailReader<MemoryErrorRecord> a(path_, policy);
  std::vector<MemoryErrorRecord> resumed;
  const auto resumed_sink = [&resumed](const MemoryErrorRecord& r) {
    resumed.push_back(r);
  };
  Append(payload.substr(0, payload.size() / 2));
  (void)a.Poll(resumed_sink);

  std::string state;
  binio::Writer writer(state);
  a.SaveState(writer);

  // Reader B restores and finishes the stream; A is discarded.
  TailReader<MemoryErrorRecord> b(path_, policy);
  binio::Reader reader(state);
  ASSERT_TRUE(b.LoadState(reader));
  EXPECT_EQ(reader.Remaining(), 0u);
  Append(payload.substr(payload.size() / 2));
  (void)b.Poll(resumed_sink);
  b.Finish(resumed_sink);
  ExpectMatchesBatch(resumed, b.Report(), policy);
}

TEST_F(TailReaderTest, LoadStateRejectsCorruptPayloadAndResets) {
  TailReader<MemoryErrorRecord> a(path_, IngestPolicy{});
  Append(std::string(logs::MemoryErrorHeader()) + "\n" +
         logs::FormatRecord(MakeRecord(0)) + "\n");
  std::vector<MemoryErrorRecord> sunk;
  (void)a.Poll([&sunk](const MemoryErrorRecord& r) { sunk.push_back(r); });
  std::string state;
  binio::Writer writer(state);
  a.SaveState(writer);

  for (const std::size_t cut : {std::size_t{0}, std::size_t{3}, state.size() / 2,
                                state.size() - 1}) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    const std::string_view damaged = std::string_view(state).substr(0, cut);
    TailReader<MemoryErrorRecord> b(path_, IngestPolicy{});
    binio::Reader reader(damaged);
    EXPECT_FALSE(b.LoadState(reader));
    ExpectMonitorRefusesAndStaysFresh(damaged);  // reset, not half-restored
  }
}

TEST_F(TailReaderTest, LoadStateRejectsForgedCountWithoutAllocating) {
  // A checkpoint whose horizon-record or pending-record count claims 2^60
  // entries: the bound check must reject it before anything is sized for
  // that count.
  Append(std::string(logs::MemoryErrorHeader()) + "\n");
  TailReader<MemoryErrorRecord> a(path_, IngestPolicy{});
  (void)a.Poll([](const MemoryErrorRecord&) {});
  std::string state;
  binio::Writer writer(state);
  a.SaveState(writer);
  // The record ends with the horizon-record count and the pending count,
  // both zero.
  ASSERT_GE(state.size(), 16u);
  for (const int forged_at : {0, 1}) {
    SCOPED_TRACE(forged_at == 0 ? "horizon count" : "pending count");
    std::string forged = state.substr(0, state.size() - 16);
    binio::Writer forger(forged);
    forger.PutU64(forged_at == 0 ? std::uint64_t{1} << 60 : 0);
    forger.PutU64(forged_at == 1 ? std::uint64_t{1} << 60 : 0);

    TailReader<MemoryErrorRecord> b(path_, IngestPolicy{});
    binio::Reader reader(forged);
    EXPECT_FALSE(b.LoadState(reader));
    ExpectMonitorRefusesAndStaysFresh(forged);
  }
}

// Grows `path` by `bytes` in `chunk`-byte appends, polling after each.
void GrowAndPoll(const std::string& path, std::string_view bytes, std::size_t chunk,
                 TailReader<MemoryErrorRecord>& reader,
                 const TailReader<MemoryErrorRecord>::Sink& sink) {
  for (std::size_t at = 0; at < bytes.size(); at += chunk) {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << bytes.substr(at, chunk);
    out.close();
    (void)reader.Poll(sink);
  }
}

std::string StateBytes(const TailReader<MemoryErrorRecord>& reader) {
  std::string state;
  binio::Writer writer(state);
  reader.SaveState(writer);
  return state;
}

TEST_F(TailReaderTest, EveryCorruptionModeChunkedAndRestoredMatchesBatch) {
  // Each corruption mode at severity 0.25 (header drift permuting the
  // columns), grown in chunks that cut lines, and checkpointed → restored
  // into a fresh reader at several cuts: the restored reader must deliver
  // the same records and save the same state bytes as one that never
  // stopped, and both must match the batch reader over the final file.
  constexpr std::size_t kChunk = 1009;
  const IngestPolicy policy;
  for (int m = 0; m < logs::kCorruptionModeCount; ++m) {
    const auto mode = static_cast<logs::CorruptionMode>(m);
    SCOPED_TRACE(std::string(logs::CorruptionModeName(mode)));
    const auto payload = logs::testdata::CorruptedMemoryStream(
        1500, mode, 0.25, 3, dir_ + "/source.tsv");
    ASSERT_TRUE(payload.has_value());

    const std::string whole_path = dir_ + "/whole-" + std::to_string(m) + ".tsv";
    TailReader<MemoryErrorRecord> whole(whole_path, policy);
    std::vector<MemoryErrorRecord> whole_records;
    const auto whole_sink = [&](const MemoryErrorRecord& r) { whole_records.push_back(r); };
    GrowAndPoll(whole_path, *payload, kChunk, whole, whole_sink);
    const std::string whole_polled = StateBytes(whole);
    whole.Finish(whole_sink);

    path_ = whole_path;
    ExpectMatchesBatch(whole_records, whole.Report(), policy);
    if (mode == logs::CorruptionMode::kHeaderDrift) {
      ASSERT_FALSE(whole.Report().repairs.empty());
      EXPECT_EQ(whole.Report().repairs.front(),
                "remapped drifted header (column order) back to canonical schema");
    }

    const std::size_t chunks = (payload->size() + kChunk - 1) / kChunk;
    for (const std::size_t cut_chunk : {chunks / 5, chunks / 2, chunks - 1}) {
      SCOPED_TRACE("cut after chunk " + std::to_string(cut_chunk));
      const std::size_t cut = cut_chunk * kChunk;
      const std::string path = dir_ + "/cut-" + std::to_string(m) + "-" +
                               std::to_string(cut_chunk) + ".tsv";
      std::vector<MemoryErrorRecord> records;
      const auto sink = [&](const MemoryErrorRecord& r) { records.push_back(r); };
      std::string state;
      {
        TailReader<MemoryErrorRecord> before(path, policy);
        GrowAndPoll(path, std::string_view(*payload).substr(0, cut), kChunk, before, sink);
        state = StateBytes(before);
      }
      TailReader<MemoryErrorRecord> after(path, policy);
      binio::Reader reader(state);
      ASSERT_TRUE(after.LoadState(reader));
      EXPECT_EQ(reader.Remaining(), 0u);
      EXPECT_EQ(StateBytes(after), state);
      GrowAndPoll(path, std::string_view(*payload).substr(cut), kChunk, after, sink);
      EXPECT_EQ(StateBytes(after), whole_polled);
      after.Finish(sink);
      EXPECT_EQ(StateBytes(after), StateBytes(whole));
      EXPECT_EQ(records, whole_records);
      ExpectReportsEqual(whole.Report(), after.Report());
    }
  }
}

TEST_F(TailReaderTest, FollowsAWriterThread) {
  const std::string payload = DirtyPayload();
  IngestPolicy policy;
  policy.reorder_window_seconds = 600;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::size_t at = 0; at < payload.size();) {
      const std::size_t chunk = std::min<std::size_t>(1999, payload.size() - at);
      {
        std::ofstream out(path_, std::ios::app | std::ios::binary);
        out << payload.substr(at, chunk);
        out.flush();
      }
      at += chunk;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    done.store(true);
  });

  TailReader<MemoryErrorRecord> reader(path_, policy);
  std::vector<MemoryErrorRecord> tailed;
  const auto sink = [&tailed](const MemoryErrorRecord& r) { tailed.push_back(r); };
  while (!done.load()) {
    (void)reader.Poll(sink);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  writer.join();
  (void)reader.Poll(sink);
  reader.Finish(sink);
  ExpectMatchesBatch(tailed, reader.Report(), policy);
}

}  // namespace
}  // namespace astra::stream
