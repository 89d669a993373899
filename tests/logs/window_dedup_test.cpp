// Dedup inside the reorder window: a parsed record is dropped when an equal
// record (operator==) arrived earlier and is still in the window — buffered
// for re-sort, or delivered at exactly the horizon second.  Every case runs
// through the sharded batch reader at 1, 2 and 8 shards and through the
// tail reader, and all four must agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "logs/log_file.hpp"
#include "logs/serialize.hpp"
#include "scratch_path.hpp"
#include "stream/tail_reader.hpp"
#include "util/binio.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace astra::logs {
namespace {

constexpr std::int64_t kHour = 3600;

MemoryErrorRecord MakeRecord(std::int64_t offset_s, std::uint64_t address) {
  MemoryErrorRecord r;
  r.timestamp = SimTime::FromCivil(2019, 6, 15, 12, 0, 0).AddSeconds(offset_s);
  r.node = 3;
  r.slot = DimmSlot::C;
  r.socket = SocketOfSlot(r.slot);
  r.rank = 1;
  r.bank = 4;
  r.bit_position = EncodeRecordedBit(17, 2);
  r.physical_address = address;
  r.syndrome = 0x1234;
  return r;
}

std::string Line(std::int64_t offset_s, std::uint64_t address) {
  return FormatRecord(MakeRecord(offset_s, address));
}

// Everything a report counts, in one comparable string.
std::string Summary(const IngestReport& report) {
  std::string out = std::to_string(report.stats.total_lines) + " lines, " +
                    std::to_string(report.stats.parsed) + " parsed, reasons";
  for (const auto n : report.malformed_by_reason) out += " " + std::to_string(n);
  out += ", " + std::to_string(report.duplicates_removed) + " dup, " +
         std::to_string(report.out_of_order_seen) + " late, " +
         std::to_string(report.reordered) + " reordered, " +
         std::to_string(report.order_violations) + " beyond";
  for (const auto& repair : report.repairs) out += " | " + repair;
  return out;
}

struct Ingested {
  std::vector<MemoryErrorRecord> records;
  IngestReport report;
};

class WindowDedupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestScratchPath("astra_window_dedup_test_");
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/memory_errors.tsv";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void WriteLines(const std::vector<std::string>& lines, bool header = true) {
    std::ofstream out(path_, std::ios::binary);
    if (header) out << MemoryErrorHeader() << '\n';
    for (const auto& line : lines) out << line << '\n';
  }

  // The file through the batch reader at 1, 2 and 8 shards and through the
  // tail reader: every reader delivers the same records, counted alike.
  Ingested IngestEveryWay(const IngestPolicy& policy) {
    Ingested first;
    for (const unsigned shards : {1u, 2u, 8u}) {
      SCOPED_TRACE("shards " + std::to_string(shards));
      Ingested run;
      const auto records =
          IngestAllRecords<MemoryErrorRecord>(path_, policy, shards, &run.report);
      EXPECT_TRUE(records.has_value());
      run.records = records.value_or(std::vector<MemoryErrorRecord>{});
      EXPECT_TRUE(run.report.Consistent());
      EXPECT_EQ(run.records.size(), run.report.Delivered());
      if (shards == 1) {
        first = run;
      } else {
        EXPECT_EQ(run.records, first.records);
        EXPECT_EQ(Summary(run.report), Summary(first.report));
      }
    }
    stream::TailReader<MemoryErrorRecord> tail(path_, policy);
    std::vector<MemoryErrorRecord> tailed;
    const auto sink = [&tailed](const MemoryErrorRecord& r) { tailed.push_back(r); };
    (void)tail.Poll(sink);
    tail.Finish(sink);
    EXPECT_EQ(tailed, first.records);
    EXPECT_EQ(Summary(tail.Report()), Summary(first.report));
    return first;
  }

  static IngestPolicy Window(std::int64_t seconds) {
    IngestPolicy policy;
    policy.reorder_window_seconds = seconds;
    return policy;
  }

  std::string dir_;
  std::string path_;
};

TEST_F(WindowDedupTest, DuplicateOfABufferedRecordIsDropped) {
  // The twin is still waiting in the re-sort buffer: one adjacent repeat,
  // one a few records later, one behind a newer record.
  WriteLines({Line(0, 0x10), Line(0, 0x10), Line(60, 0x11), Line(120, 0x12),
              Line(60, 0x11), Line(180, 0x13), Line(0, 0x10)});
  const Ingested run = IngestEveryWay(IngestPolicy{});
  EXPECT_EQ(run.report.duplicates_removed, 3u);
  EXPECT_EQ(run.records.size(), 4u);
  EXPECT_EQ(run.report.order_violations, 0u);
}

TEST_F(WindowDedupTest, DuplicateAtTheHorizonSecondIsDropped) {
  // The 6 h record moves the horizon onto the first record's second: that
  // record is delivered, yet still in the window, so its repeat is dropped.
  WriteLines({Line(0, 0x10), Line(6 * kHour, 0x20), Line(0, 0x10)});
  const Ingested run = IngestEveryWay(IngestPolicy{});
  EXPECT_EQ(run.report.duplicates_removed, 1u);
  EXPECT_EQ(run.records.size(), 2u);
  EXPECT_EQ(run.report.order_violations, 0u);
}

TEST_F(WindowDedupTest, DuplicateOfARecordPastTheWindowIsDelivered) {
  // The 6 h + 61 s record moves the horizon past both earlier records: the
  // repeat's twin has left the window, so the repeat is delivered, behind
  // the 60 s record (beyond the window), and never matched.
  WriteLines({Line(0, 0x10), Line(60, 0x11), Line(6 * kHour + 61, 0x20), Line(0, 0x10)});
  const Ingested run = IngestEveryWay(IngestPolicy{});
  EXPECT_EQ(run.report.duplicates_removed, 0u);
  ASSERT_EQ(run.records.size(), 4u);
  EXPECT_EQ(run.report.order_violations, 1u);
  EXPECT_EQ(run.records[0], run.records[2]);
}

TEST_F(WindowDedupTest, ZeroWindowDedupsTheNewestSecondOnly) {
  // The scope is the newest second: same-second repeats are dropped, a
  // repeat that arrives after a newer record is delivered.
  WriteLines({Line(0, 0x10), Line(0, 0x11), Line(0, 0x10), Line(0, 0x11),
              Line(60, 0x12), Line(0, 0x10), Line(60, 0x12)});
  const Ingested run = IngestEveryWay(Window(0));
  EXPECT_EQ(run.report.duplicates_removed, 3u);
  EXPECT_EQ(run.records.size(), 4u);
  EXPECT_EQ(run.report.order_violations, 1u);
}

TEST_F(WindowDedupTest, TornCopyWhoseTailStillParsesIsADuplicate) {
  // A copy torn inside its last field can keep a parsable tail: the
  // syndrome without its "0x" is the same value, so the same record.
  const std::string line = Line(0, 0x10);
  const std::size_t prefix = line.rfind("\t0x");
  ASSERT_NE(prefix, std::string::npos);
  const std::string torn = line.substr(0, prefix + 1) + line.substr(prefix + 3);
  ASSERT_EQ(ParseMemoryError(torn), ParseMemoryError(line));
  WriteLines({line, Line(60, 0x11), torn});
  const Ingested run = IngestEveryWay(IngestPolicy{});
  EXPECT_EQ(run.report.duplicates_removed, 1u);
  EXPECT_EQ(run.records.size(), 2u);
}

TEST_F(WindowDedupTest, StuckClockDropsEveryRepeat) {
  // One second for every record (a stuck collector clock), every tenth a
  // repeat of an earlier one: each repeat is in the window whatever its
  // size, so all are dropped, as full-history dedup dropped them.
  std::vector<std::string> lines;
  Rng rng(0x57c4ULL);
  constexpr int kRecords = 5000;
  int repeats = 0;
  for (int i = 0; i < kRecords; ++i) {
    lines.push_back(Line(0, 0x1000 + static_cast<std::uint64_t>(i)));
    if (i % 10 == 9) {
      lines.push_back(Line(0, 0x1000 + rng.UniformInt(static_cast<std::uint64_t>(i + 1))));
      ++repeats;
    }
  }
  WriteLines(lines);
  for (const std::int64_t window : {std::int64_t{0}, 6 * kHour}) {
    SCOPED_TRACE("window " + std::to_string(window));
    const Ingested run = IngestEveryWay(Window(window));
    EXPECT_EQ(run.report.duplicates_removed, static_cast<std::size_t>(repeats));
    EXPECT_EQ(run.records.size(), static_cast<std::size_t>(kRecords));
    EXPECT_EQ(run.report.out_of_order_seen, 0u);
  }
}

TEST_F(WindowDedupTest, DriftedHeaderWithExtraColumnsParsesAsBefore) {
  // Columns permuted, two aliased and two extra ones the schema does not
  // know: each line is scanned once in file order and read through the map.
  const std::string header =
      "host\tts\tsocket\ttype\tslot\trow\trank\tbank\tbit\tcollector\taddr\tsyndrome\tseq";
  const auto drifted = [](const MemoryErrorRecord& r, std::string_view extra) {
    const std::string line = FormatRecord(r);
    const auto f = SplitView(line, '\t');
    std::string out(f[1]);
    out += "\t" + std::string(f[0]);
    for (std::size_t i = 2; i < 9; ++i) out += "\t" + std::string(f[i]);
    out += "\t" + std::string(extra);
    out += "\t" + std::string(f[9]) + "\t" + std::string(f[10]) + "\tx";
    return out;
  };
  const MemoryErrorRecord a = MakeRecord(0, 0x10);
  const MemoryErrorRecord b = MakeRecord(60, 0x11);
  std::string bad_time = drifted(b, "c1");
  bad_time.replace(bad_time.find('\t') + 1, 4, "20x9");
  std::string bad_value = drifted(b, "c1");
  bad_value.replace(bad_value.find("\tCE\t"), 4, "\tZZ\t");
  WriteLines({header, drifted(a, "c1"), "", drifted(b, "anything at all"), header,
              std::string(MemoryErrorHeader()), FormatRecord(b), drifted(a, "c1") + "\tmore",
              "torn\tline", bad_time, bad_value, drifted(a, "c2")},
             /*header=*/false);
  const Ingested run = IngestEveryWay(IngestPolicy{});
  EXPECT_TRUE(run.report.header_remapped);
  EXPECT_EQ(run.records, (std::vector<MemoryErrorRecord>{a, b}));
  EXPECT_EQ(run.report.stats.total_lines, 8u);
  EXPECT_EQ(run.report.stats.parsed, 3u);
  EXPECT_EQ(run.report.duplicates_removed, 1u);  // a again, with other extras
  EXPECT_EQ(run.report.out_of_order_seen, 0u);
  EXPECT_EQ(run.report.malformed_by_reason,
            (std::array<std::size_t, kMalformedReasonCount>{3, 1, 1}));
}

// A tail reader checkpointed after `first`, restored into a fresh reader,
// then fed `then`: it delivers what one that never stopped delivers.
TEST_F(WindowDedupTest, RestoredCheckpointDropsDuplicatesOfSavedRecords) {
  // After the first three lines the 0 s records sit in the horizon set and
  // the 6 h record in the buffer; the next lines repeat one of each.
  const std::vector<std::string> first = {Line(0, 0x10), Line(0, 0x11),
                                          Line(6 * kHour, 0x20)};
  const std::vector<std::string> then = {Line(0, 0x11), Line(6 * kHour, 0x20),
                                         Line(6 * kHour + 60, 0x21)};
  WriteLines(first);
  const IngestPolicy policy;
  std::vector<MemoryErrorRecord> delivered;
  const auto sink = [&delivered](const MemoryErrorRecord& r) { delivered.push_back(r); };
  stream::TailReader<MemoryErrorRecord> before(path_, policy);
  ASSERT_EQ(before.Poll(sink), stream::TailStatus::kAdvanced);
  std::string state;
  binio::Writer writer(state);
  before.SaveState(writer);

  {
    std::ofstream out(path_, std::ios::app | std::ios::binary);
    for (const auto& line : then) out << line << '\n';
  }
  stream::TailReader<MemoryErrorRecord> restored(path_, policy);
  binio::Reader reader(state);
  ASSERT_TRUE(restored.LoadState(reader));
  ASSERT_TRUE(reader.Ok());
  ASSERT_EQ(restored.Poll(sink), stream::TailStatus::kAdvanced);
  restored.Finish(sink);
  EXPECT_EQ(restored.Report().duplicates_removed, 2u);

  std::vector<std::string> all = first;
  all.insert(all.end(), then.begin(), then.end());
  WriteLines(all);
  const Ingested run = IngestEveryWay(policy);
  EXPECT_EQ(delivered, run.records);
  EXPECT_EQ(Summary(restored.Report()), Summary(run.report));
}

TEST_F(WindowDedupTest, SteadyStreamCheckpointStaysBounded) {
  // One record a minute: the window holds six hours of them however long
  // the stream runs, and so does the reader's checkpoint record.
  const auto state_after = [this](int records) {
    std::vector<std::string> lines;
    for (int i = 0; i < records; ++i) {
      lines.push_back(Line(60 * i, 0x100000 + static_cast<std::uint64_t>(i)));
      if (i % 7 == 0) lines.push_back(lines.back());
    }
    WriteLines(lines);
    stream::TailReader<MemoryErrorRecord> reader(path_, IngestPolicy{});
    (void)reader.Poll([](const MemoryErrorRecord&) {});
    std::string state;
    binio::Writer writer(state);
    reader.SaveState(writer);
    return state.size();
  };
  const std::size_t at_n = state_after(2000);
  EXPECT_LE(state_after(4000), at_n);
  EXPECT_LT(at_n, std::size_t{400} * 100);  // about 361 buffered records
}

// The dedup index against a reference multimap, under fingerprints that
// collide on purpose (a few values, and values equal in their low bits) so
// probe runs wrap and erases shift entries back.
TEST(WindowIndexTest, MatchesAReferenceUnderCollisionsAndErases) {
  Rng rng(0x1dbULL);
  detail::WindowIndex index;
  std::multimap<std::uint64_t, std::uint64_t> reference;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> live;
  const auto fingerprint = [&rng] {
    const std::uint64_t low = rng.UniformInt(std::uint64_t{8});
    return rng.Bernoulli(0.5) ? low : (rng.UniformInt(std::uint64_t{16}) << 32) | (low + 60);
  };
  std::uint64_t seq = 0;
  for (int op = 0; op < 40000; ++op) {
    if (live.empty() || rng.Bernoulli(0.55)) {
      const std::uint64_t fp = fingerprint();
      index.Insert(fp, seq);
      reference.emplace(fp, seq);
      live.emplace_back(fp, seq++);
    } else {
      const std::size_t at = rng.UniformInt(live.size());
      const auto [fp, s] = live[at];
      index.Erase(fp, s);
      for (auto it = reference.lower_bound(fp); it != reference.end(); ++it) {
        if (it->second == s) {
          reference.erase(it);
          break;
        }
      }
      live[at] = live.back();
      live.pop_back();
    }
    const std::uint64_t probe = fingerprint();
    const auto [lo, hi] = reference.equal_range(probe);
    std::vector<std::uint64_t> expected;
    for (auto it = lo; it != hi; ++it) expected.push_back(it->second);
    std::vector<std::uint64_t> found;
    EXPECT_FALSE(index.AnyOf(probe, [&found](std::uint64_t s) {
      found.push_back(s);
      return false;
    }));
    std::sort(found.begin(), found.end());
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(found, expected) << "op " << op;
  }
}

}  // namespace
}  // namespace astra::logs
