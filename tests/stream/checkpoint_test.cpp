// Checkpoint fuzzing: a damaged checkpoint — any single corrupted byte, any
// truncation point, any forged envelope, any section no Snapshot writes —
// must be REJECTED with a specific status, never crash, and never leave the
// monitor half-restored.
#include "stream/checkpoint.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.hpp"
#include "core/report.hpp"
#include "faultsim/fleet.hpp"
#include "logs/serialize.hpp"
#include "scratch_path.hpp"
#include "util/binio.hpp"
#include "util/file_io.hpp"

namespace astra::stream {
namespace {

template <typename T>
std::string SnapshotOf(const T& object) {
  std::string bytes;
  binio::Writer writer(bytes);
  object.Snapshot(writer);
  return bytes;
}

template <typename Record>
std::string StateOf(const TailReader<Record>& reader) {
  std::string bytes;
  binio::Writer writer(bytes);
  reader.SaveState(writer);
  return bytes;
}

// A monitor envelope around `payload`, CRC-valid.
std::string MonitorEnvelope(const std::string& payload) {
  std::string envelope(kCheckpointMagic);
  binio::Writer writer(envelope);
  writer.PutU32(kCheckpointVersion);
  writer.PutU64(payload.size());
  writer.PutU32(binio::Crc32(payload));
  return envelope + payload;
}

// A monitor payload assembled section by section, in StreamMonitor::Snapshot
// order, so one section can be replaced by a shape no Snapshot writes.
struct Sections {
  std::string memory_reader, het_reader;
  std::string coalescer, temporal, predictor, dues, set_tail;
  std::string alerts;
  [[nodiscard]] std::string Payload() const {
    return memory_reader + het_reader + coalescer + temporal + predictor + dues +
           set_tail + alerts;
  }
};

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestScratchPath("astra_stream_checkpoint_test_");
    std::filesystem::create_directories(dir_);
    paths_ = core::DatasetPaths::InDirectory(dir_);
    checkpoint_ = dir_ + "/watch.ckpt";

    faultsim::CampaignConfig config;
    config.SeedFrom(5);
    config.node_count = 24;
    const auto campaign = faultsim::FleetSimulator(config).Run();
    ASSERT_TRUE(core::WriteFailureData(paths_, campaign));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // A monitor with real state: full streams consumed, analyses populated.
  StreamMonitor FinishedMonitor() {
    StreamMonitor monitor(paths_, MonitorConfig{});
    (void)monitor.Finish();
    return monitor;
  }

  static std::string RenderOf(StreamMonitor& monitor) {
    std::ostringstream out;
    core::RenderAnalysisReport(out, monitor.Artifacts());
    return out.str();
  }

  std::string SavedBytes() {
    StreamMonitor monitor(paths_, MonitorConfig{});
    (void)monitor.Poll();
    EXPECT_EQ(SaveMonitorCheckpoint(monitor, checkpoint_), CheckpointStatus::kOk);
    const auto bytes = ReadFileBytes(checkpoint_);
    EXPECT_TRUE(bytes.has_value());
    return bytes.value_or("");
  }

  // Restoring `bytes` must fail with `expected` and leave the monitor fresh
  // (zero records delivered, artifacts renderable without crashing).
  void ExpectRejected(const std::string& bytes, CheckpointStatus expected,
                      const std::string& trace) {
    SCOPED_TRACE(trace);
    const std::string mangled = dir_ + "/mangled.ckpt";
    ASSERT_TRUE(WriteFileBytes(mangled, bytes));
    StreamMonitor monitor(paths_, MonitorConfig{});
    EXPECT_EQ(RestoreMonitorCheckpoint(monitor, mangled), expected);
    EXPECT_EQ(monitor.Delivered(), 0u);  // reset, not half-restored
  }

  // Every section as a freshly constructed monitor's.
  Sections FreshSections() const {
    Sections s;
    s.memory_reader = StateOf(
        TailReader<logs::MemoryErrorRecord>(paths_.memory_errors, logs::IngestPolicy{}));
    s.het_reader =
        StateOf(TailReader<logs::HetRecord>(paths_.het_events, logs::IngestPolicy{}));
    s.coalescer = SnapshotOf(core::FaultCoalescer{});
    s.temporal = SnapshotOf(core::TemporalEngine{});
    s.predictor = SnapshotOf(core::PredictorEngine{});
    s.dues = SnapshotOf(core::UncorrectableEngine{});
    s.set_tail = SnapshotOf(core::AnalysisEngineSet{}).substr(
        s.coalescer.size() + s.temporal.size() + s.predictor.size() + s.dues.size());
    s.alerts = SnapshotOf(StreamingAlerts{});
    return s;
  }

  // The memory reader's state after reading `lines` of a probe log.
  std::string ReaderStateAfter(const std::vector<std::string>& lines,
                               const logs::IngestPolicy& policy) const {
    const std::string probe = dir_ + "/probe.tsv";
    std::string bytes = std::string(logs::MemoryErrorHeader()) + "\n";
    for (const auto& line : lines) bytes += line + "\n";
    EXPECT_TRUE(WriteFileBytes(probe, bytes));
    TailReader<logs::MemoryErrorRecord> reader(probe, policy);
    EXPECT_EQ(reader.Poll([](const logs::MemoryErrorRecord&) {}),
              TailStatus::kAdvanced);
    return StateOf(reader);
  }

  // Restore `payload` through the checkpoint reader: `expected`, and on a
  // refusal a monitor byte for byte as fresh as a newly constructed one.
  void ExpectRestoreOf(const std::string& payload, CheckpointStatus expected,
                       const std::string& shape) {
    SCOPED_TRACE(shape);
    const std::string path = dir_ + "/shape.ckpt";
    ASSERT_TRUE(WriteFileBytes(path, MonitorEnvelope(payload)));
    StreamMonitor monitor(paths_, MonitorConfig{});
    EXPECT_EQ(RestoreMonitorCheckpoint(monitor, path), expected);
    if (expected != CheckpointStatus::kOk) {
      EXPECT_EQ(monitor.Delivered(), 0u);
      EXPECT_EQ(SnapshotOf(monitor), FreshSections().Payload());
    }
  }

  std::string dir_;
  core::DatasetPaths paths_;
  std::string checkpoint_;
};

// A probe CE on one DIMM, `offset_s` after 2019-06-15 12:00.
std::string ProbeLine(std::int64_t offset_s, std::uint64_t address) {
  logs::MemoryErrorRecord r;
  r.timestamp = SimTime::FromCivil(2019, 6, 15, 12, 0, 0).AddSeconds(offset_s);
  r.node = 3;
  r.slot = DimmSlot::C;
  r.socket = SocketOfSlot(r.slot);
  r.bank = 4;
  r.physical_address = address;
  return logs::FormatRecord(r);
}

// The probe records: three CEs a minute apart on one DIMM.
std::vector<std::string> ProbeLines() {
  std::vector<std::string> lines;
  for (int i = 0; i < 3; ++i) {
    lines.push_back(ProbeLine(60 * i, 0x1000 + static_cast<std::uint64_t>(i)));
  }
  return lines;
}

// A record a reader saves: its text and its arrival number.
struct Saved {
  std::string line;
  std::uint64_t seq = 0;
};

// The end of a memory reader's state: the delivered records at the horizon
// second, then the re-sort buffer (none of it out of order).
std::string ReaderTail(const std::vector<Saved>& horizon,
                       const std::vector<Saved>& pending) {
  std::string bytes;
  binio::Writer writer(bytes);
  writer.PutU64(horizon.size());
  for (const Saved& saved : horizon) {
    writer.PutString(saved.line);
    writer.PutU64(saved.seq);
  }
  writer.PutU64(pending.size());
  for (const Saved& saved : pending) {
    writer.PutString(saved.line);
    writer.PutU64(saved.seq);
    writer.PutBool(false);
  }
  return bytes;
}

// The engine set's own fields after its four engines.
std::string SetTail(bool any, std::int32_t max_node, std::int64_t lo, std::int64_t hi) {
  std::string bytes;
  binio::Writer writer(bytes);
  writer.PutU64(0);  // next_seq
  writer.PutU64(any ? 1 : 0);  // delivered
  writer.PutBool(any);
  writer.PutI32(max_node);
  writer.PutI64(lo);
  writer.PutI64(hi);
  return bytes;
}

// A coalescer group holding one detail per entry of `details`.
void PutGroup(binio::Writer& writer, std::uint64_t key,
              const std::vector<std::uint64_t>& details) {
  writer.PutU64(key);
  writer.PutU64(details.size());  // error_count
  writer.PutI64(1000);            // first_seen
  writer.PutI64(1000);            // last_seen
  writer.PutU64(details.empty() ? 0 : details.front());  // anchor_address
  writer.PutI32(3);               // anchor_bit
  writer.PutBool(false);          // detail_overflow
  writer.PutU64(0);               // addresses
  writer.PutU64(0);               // columns
  writer.PutU64(0);               // bits
  writer.PutU64(details.size());
  for (const std::uint64_t address : details) {
    writer.PutU64(address);
    writer.PutU64(1);
    writer.PutI64(1000);
    writer.PutI64(1000);
    writer.PutI32(3);
    writer.PutU64(1);
    writer.PutU32(3);
  }
}

std::string CoalescerPayload(
    const std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>>& groups) {
  std::string bytes;
  binio::Writer writer(bytes);
  writer.PutU64(groups.size());  // total_errors
  writer.PutU64(0);              // skipped_records
  writer.PutU64(groups.size());
  for (const auto& [key, details] : groups) PutGroup(writer, key, details);
  return bytes;
}

std::string TemporalPayload(const std::vector<std::int64_t>& months) {
  std::string bytes;
  binio::Writer writer(bytes);
  writer.PutU64(months.size());
  for (const std::int64_t month : months) {
    writer.PutI64(month);
    writer.PutU64(3);
  }
  return bytes;
}

// A predictor section: per DIMM its id, no DUE, each address with its bits,
// then `heap` CE-volume moments.
struct PredictorDimm {
  std::int64_t dimm;
  std::vector<std::pair<std::uint64_t, std::vector<std::int32_t>>> addresses;
  std::uint64_t heap = 0;
};

std::string PredictorPayload(const std::vector<PredictorDimm>& dimms) {
  std::string bytes;
  binio::Writer writer(bytes);
  std::uint64_t seq = 0;
  writer.PutU64(dimms.size());
  for (const PredictorDimm& dimm : dimms) {
    writer.PutI64(dimm.dimm);
    writer.PutBool(false);
    writer.PutI64(0);
    writer.PutU64(dimm.addresses.size());
    for (const auto& [address, bits] : dimm.addresses) {
      writer.PutU64(address);
      writer.PutU64(bits.size());
      for (const std::int32_t bit : bits) {
        writer.PutI32(bit);
        writer.PutI64(1000);
        writer.PutU64(seq++);
      }
    }
    writer.PutU64(dimm.heap);
    for (std::uint64_t i = 0; i < dimm.heap; ++i) {
      writer.PutI64(1000);
      writer.PutU64(i);
    }
  }
  return bytes;
}

// ReadCheckpointFile keeps a payload only if it re-encodes to the same
// bytes.  Every shape below decodes, yet no Snapshot writes it; each is
// refused as kBadPayload and leaves a fresh monitor.  Each section's
// canonical form is accepted, so the refusal is the shape's.
TEST_F(CheckpointTest, NonCanonicalSectionsAreRefusedAndLeaveAFreshMonitor) {
  const Sections fresh = FreshSections();
  ASSERT_EQ(fresh.Payload(), SnapshotOf(StreamMonitor(paths_, MonitorConfig{})));
  ExpectRestoreOf(fresh.Payload(), CheckpointStatus::kOk, "fresh monitor");

  const auto with = [&fresh](std::string Sections::*section, std::string bytes) {
    Sections s = fresh;
    s.*section = std::move(bytes);
    return s.Payload();
  };
  const auto refused = [this](const std::string& payload, const std::string& shape) {
    ExpectRestoreOf(payload, CheckpointStatus::kBadPayload, shape);
  };

  // Temporal engine: the last count of a repeated month used to win.
  const std::int64_t month = 24245;
  ExpectRestoreOf(with(&Sections::temporal, TemporalPayload({month, month + 1})),
                  CheckpointStatus::kOk, "temporal: ascending months");
  refused(with(&Sections::temporal, TemporalPayload({month, month})),
          "temporal: repeated month");

  // Coalescer: a repeated group key was dropped by emplace; a repeated
  // detail address re-encodes unchanged, so its decoder refuses it.
  const std::uint64_t key = (std::uint64_t{3} << 16) | 0x204;
  ExpectRestoreOf(
      with(&Sections::coalescer,
           CoalescerPayload({{key, {0x100, 0x200}}, {key + 1, {}}})),
      CheckpointStatus::kOk, "coalescer: canonical groups");
  refused(with(&Sections::coalescer, CoalescerPayload({{key, {}}, {key, {}}})),
          "coalescer: repeated group key");
  refused(with(&Sections::coalescer, CoalescerPayload({{key, {0x100, 0x100}}})),
          "coalescer: repeated detail address");
  // A key outside the machine (bank 28 of 16) re-encodes unchanged too.
  refused(with(&Sections::coalescer, CoalescerPayload({{(key & ~0x3FULL) | 28, {}}})),
          "coalescer: group key outside the machine");

  // Ingest machine, dedup scope: two records at 12:00, then one at 18:00
  // that moves the horizon (18:00 - 6 h) onto them.  Both stay in the scope
  // as delivered horizon records, in arrival order; the 18:00 record waits
  // in the buffer.  The state ends with those two lists.
  const std::vector<std::string> probe = ProbeLines();
  const std::string late = ProbeLine(6 * 3600, 0x2000);
  const std::string scoped =
      ReaderStateAfter({probe[0], ProbeLine(0, 0x1001), late}, logs::IngestPolicy{});
  const std::vector<Saved> horizon = {{probe[0], 0}, {ProbeLine(0, 0x1001), 1}};
  const std::vector<Saved> pending = {{late, 2}};
  const std::string tail = ReaderTail(horizon, pending);
  ASSERT_EQ(scoped.substr(scoped.size() - tail.size()), tail);
  const std::string head = scoped.substr(0, scoped.size() - tail.size());
  ExpectRestoreOf(with(&Sections::memory_reader, head + tail), CheckpointStatus::kOk,
                  "reader: horizon records in arrival order");
  const struct {
    const char* shape;
    std::vector<Saved> horizon, pending;
  } reader_cases[] = {
      {"horizon record of another second", {{ProbeLine(-1, 0x1000), 0}}, pending},
      {"horizon records out of arrival order", {horizon[1], horizon[0]}, pending},
      {"repeated horizon record", {horizon[0], {probe[0], 1}}, pending},
      {"arrival number not yet handed out", {horizon[0], {horizon[1].line, 3}}, pending},
      {"pending record at the horizon", horizon, {{ProbeLine(0, 0x2000), 2}}},
      {"pending record past the newest", horizon, {{ProbeLine(6 * 3600 + 1, 0x2000), 2}}},
  };
  for (const auto& bad : reader_cases) {
    refused(with(&Sections::memory_reader, head + ReaderTail(bad.horizon, bad.pending)),
            std::string("reader: ") + bad.shape);
  }

  // Ingest machine, re-sort buffer: all three records wait in emission
  // order at the end of the state; swapping the last two breaks it.
  const std::vector<std::string>& lines = probe;
  const std::string buffered = ReaderStateAfter(lines, logs::IngestPolicy{});
  ExpectRestoreOf(with(&Sections::memory_reader, buffered), CheckpointStatus::kOk,
                  "reader: pending in emission order");
  const std::size_t last = 8 + lines[2].size() + 9;
  const std::size_t middle = 8 + lines[1].size() + 9;
  std::string swapped = buffered.substr(0, buffered.size() - last - middle);
  swapped += buffered.substr(buffered.size() - last);
  swapped += buffered.substr(buffered.size() - last - middle, middle);
  refused(with(&Sections::memory_reader, swapped),
          "reader: pending out of emission order");

  // Predictor: the eight shapes PredictorTest pins, refused by the rule
  // alone but for the heap bound (the default config keeps no CE-volume
  // heap).
  ExpectRestoreOf(
      with(&Sections::predictor, PredictorPayload({{16, {{0x100, {1, 2}}, {0x200, {3}}}},
                                                   {17, {{0x100, {5}}}}})),
      CheckpointStatus::kOk, "predictor: canonical");
  const struct {
    const char* shape;
    std::vector<PredictorDimm> dimms;
  } predictor_cases[] = {
      {"address with no bits", {{16, {{0x100, {}}}}}},
      {"repeated (address, bit)", {{16, {{0x100, {4, 4}}}}}},
      {"descending bits", {{16, {{0x100, {4, 3}}}}}},
      {"repeated address", {{16, {{0x100, {3}}, {0x100, {4}}}}}},
      {"descending addresses", {{16, {{0x200, {3}}, {0x100, {4}}}}}},
      {"repeated DIMM", {{16, {{0x100, {3}}}}, {16, {{0x200, {4}}}}}},
      {"descending DIMMs", {{17, {{0x100, {3}}}}, {16, {{0x200, {4}}}}}},
      {"CE heap beyond the threshold", {{16, {{0x100, {3}}}, 1}}},
  };
  for (const auto& bad : predictor_cases) {
    refused(with(&Sections::predictor, PredictorPayload(bad.dimms)),
            std::string("predictor: ") + bad.shape);
  }

  // Engine set: its window and node span size Finalize's month series and
  // node tallies, and re-encode unchanged whatever they hold.
  const std::int64_t t = SimTime::FromCivil(2019, 6, 15).Seconds();
  ExpectRestoreOf(with(&Sections::set_tail, SetTail(true, 5, t, t + 60)),
                  CheckpointStatus::kOk, "engine set: records on node 5");
  const struct {
    const char* shape;
    std::string tail;
  } set_cases[] = {
      {"window end 2^40 s ahead", SetTail(true, 5, t, t + (std::int64_t{1} << 40))},
      {"window start before year -999", SetTail(true, 5, -(std::int64_t{1} << 40), t)},
      {"window ends before it begins", SetTail(true, 5, t + 60, t)},
      {"node span past the machine", SetTail(true, INT32_MAX, t, t)},
      {"negative node", SetTail(true, -1, t, t)},
      {"no records but a span", SetTail(false, 5, 0, 0)},
      {"no records but a window", SetTail(false, 0, t, t)},
  };
  for (const auto& bad : set_cases) {
    refused(with(&Sections::set_tail, bad.tail), std::string("engine set: ") + bad.shape);
  }
}

// Resetting a refused restore is the monitor's job alone: a payload cut
// anywhere — inside either reader's state, any engine of the set, or the
// alert engine — leaves StreamMonitor::Restore byte for byte fresh.
TEST_F(CheckpointTest, TruncatedPayloadLeavesAFreshMonitorInEverySection) {
  StreamMonitor full(paths_, MonitorConfig{});
  (void)full.Poll();
  const std::string payload = SnapshotOf(full);
  const std::string fresh = FreshSections().Payload();
  const std::size_t alerts_at = payload.size() - SnapshotOf(full.AlertEngine()).size();
  const std::size_t set_at = alerts_at - SnapshotOf(full.Engines()).size();
  ASSERT_GT(set_at, 0u);
  std::vector<std::size_t> cuts = {set_at - 1, set_at, set_at + 1, alerts_at - 1,
                                   alerts_at, alerts_at + 1, payload.size() - 1};
  for (std::size_t cut = 0; cut < payload.size(); cut += payload.size() / 64 + 1) {
    cuts.push_back(cut);
  }
  for (const std::size_t cut : cuts) {
    StreamMonitor monitor(paths_, MonitorConfig{});
    binio::Reader reader(std::string_view(payload).substr(0, cut));
    EXPECT_FALSE(monitor.Restore(reader)) << "cut at " << cut;
    EXPECT_EQ(SnapshotOf(monitor), fresh) << "cut at " << cut;
  }
}

TEST_F(CheckpointTest, RoundTripRestoresIdenticalState) {
  auto original = FinishedMonitor();
  ASSERT_EQ(SaveMonitorCheckpoint(original, checkpoint_), CheckpointStatus::kOk);

  StreamMonitor restored(paths_, MonitorConfig{});
  ASSERT_EQ(RestoreMonitorCheckpoint(restored, checkpoint_), CheckpointStatus::kOk);
  EXPECT_EQ(restored.Delivered(), original.Delivered());
  EXPECT_EQ(RenderOf(restored), RenderOf(original));
}

TEST_F(CheckpointTest, SaveIsAtomicNoTmpFileLeftBehind) {
  auto monitor = FinishedMonitor();
  ASSERT_EQ(SaveMonitorCheckpoint(monitor, checkpoint_), CheckpointStatus::kOk);
  EXPECT_TRUE(std::filesystem::exists(checkpoint_));
  EXPECT_FALSE(std::filesystem::exists(checkpoint_ + ".tmp"));
}

TEST_F(CheckpointTest, MissingFileIsIoError) {
  StreamMonitor monitor(paths_, MonitorConfig{});
  EXPECT_EQ(RestoreMonitorCheckpoint(monitor, dir_ + "/nope.ckpt"),
            CheckpointStatus::kIoError);
}

TEST_F(CheckpointTest, BitFlipSweepNeverRestores) {
  const std::string clean = SavedBytes();
  ASSERT_GT(clean.size(), 24u);
  const std::string mangled = dir_ + "/mangled.ckpt";
  // Flip one bit at a stride of positions covering envelope and payload.
  // The specific rejection status depends on which field the flip lands in;
  // what must hold everywhere is: rejected, crash-free, monitor left fresh.
  for (std::size_t at = 0; at < clean.size(); at += 97) {
    std::string flipped = clean;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x04);
    ASSERT_TRUE(WriteFileBytes(mangled, flipped));
    StreamMonitor monitor(paths_, MonitorConfig{});
    const auto status = RestoreMonitorCheckpoint(monitor, mangled);
    EXPECT_NE(status, CheckpointStatus::kOk) << "bit flip at byte " << at;
    EXPECT_EQ(monitor.Delivered(), 0u) << "bit flip at byte " << at;
  }
}

TEST_F(CheckpointTest, TruncationSweepNeverRestores) {
  const std::string clean = SavedBytes();
  ASSERT_GT(clean.size(), 24u);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{8}, std::size_t{12},
        std::size_t{20}, std::size_t{23}, std::size_t{24}, clean.size() / 4,
        clean.size() / 2, clean.size() - 1}) {
    const std::string mangled = dir_ + "/mangled.ckpt";
    ASSERT_TRUE(WriteFileBytes(mangled, clean.substr(0, keep)));
    StreamMonitor monitor(paths_, MonitorConfig{});
    const auto status = RestoreMonitorCheckpoint(monitor, mangled);
    EXPECT_NE(status, CheckpointStatus::kOk) << "kept " << keep << " bytes";
    EXPECT_EQ(monitor.Delivered(), 0u) << "kept " << keep << " bytes";
  }
}

TEST_F(CheckpointTest, TrailingGarbageRejected) {
  const std::string clean = SavedBytes();
  ExpectRejected(clean + "overrun", CheckpointStatus::kBadPayload,
                 "trailing garbage");
}

TEST_F(CheckpointTest, WrongMagicRejected) {
  std::string clean = SavedBytes();
  clean.replace(0, 8, "NOTACKPT");
  ExpectRejected(clean, CheckpointStatus::kBadMagic, "forged magic");
}

TEST_F(CheckpointTest, WrongVersionRejected) {
  std::string clean = SavedBytes();
  clean[8] = static_cast<char>(kCheckpointVersion + 1);  // LE low byte
  // The version mismatch must be reported as such — the message is the
  // operator's cue that a rebuild (not corruption) invalidated the file.
  ExpectRejected(clean, CheckpointStatus::kBadVersion, "future version");
  EXPECT_EQ(CheckpointStatusMessage(CheckpointStatus::kBadVersion),
            "incompatible checkpoint version");
}

TEST_F(CheckpointTest, SavedEnvelopeDeclaresVersionFive) {
  const std::string clean = SavedBytes();
  ASSERT_GT(clean.size(), 12u);
  binio::Reader header(std::string_view(clean).substr(kCheckpointMagic.size()));
  EXPECT_EQ(header.GetU32(), 5u);
  EXPECT_EQ(kCheckpointVersion, 5u);
}

TEST_F(CheckpointTest, UpgradePathVersionOneEnvelopeRejectedNotDecoded) {
  // The upgrade path for a watcher left over from an older layout — v1, the
  // pre-engine format; v2, which carried the positional engine section; or
  // v3, whose coalescer carried monthly bins and row sets: a structurally
  // perfect checkpoint (magic, declared length, matching CRC)
  // must be rejected as kBadVersion BEFORE any payload decode — older
  // payload bytes are laid out differently and must never be half-applied.
  // The operator's recovery is a fresh monitor that re-reads the logs, which
  // is exactly the state the reject leaves behind.
  const std::string clean = SavedBytes();
  ASSERT_GT(clean.size(), 24u);
  const std::string payload = clean.substr(24);

  for (const std::uint32_t version : {1u, 2u, 3u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    std::string envelope;
    binio::Writer writer(envelope);
    for (const char c : kCheckpointMagic) writer.PutU8(static_cast<std::uint8_t>(c));
    writer.PutU32(version);
    writer.PutU64(payload.size());
    writer.PutU32(binio::Crc32(payload));
    envelope += payload;
    ExpectRejected(envelope, CheckpointStatus::kBadVersion, "old envelope");

    // After the reject, a fresh Finish() over the same logs fully recovers.
    StreamMonitor monitor(paths_, MonitorConfig{});
    const std::string old_path = dir_ + "/old.ckpt";
    ASSERT_TRUE(WriteFileBytes(old_path, envelope));
    ASSERT_EQ(RestoreMonitorCheckpoint(monitor, old_path),
              CheckpointStatus::kBadVersion);
    EXPECT_EQ(monitor.Finish(), MonitorStatus::kAdvanced);
    auto batch = FinishedMonitor();
    EXPECT_EQ(RenderOf(monitor), RenderOf(batch));
  }
}

TEST_F(CheckpointTest, HostilePayloadWithValidCrcRejected) {
  // An attacker (or a very unlucky disk) can forge a consistent envelope
  // around garbage; the payload decode itself must be the last line of
  // defense — bounded, crash-free rejection.
  const std::string payload(64, '\xFF');
  std::string envelope;
  binio::Writer writer(envelope);
  for (const char c : kCheckpointMagic) writer.PutU8(static_cast<std::uint8_t>(c));
  writer.PutU32(kCheckpointVersion);
  writer.PutU64(payload.size());
  writer.PutU32(binio::Crc32(payload));
  envelope += payload;
  ExpectRejected(envelope, CheckpointStatus::kBadPayload, "forged envelope");
}

TEST_F(CheckpointTest, RemoveStaleCheckpointTmpIsANoOpWhenNothingIsStale) {
  // No tmp file at all: the sweep succeeds without touching anything.
  EXPECT_TRUE(RemoveStaleCheckpointTmp(checkpoint_));
  // And a completed save leaves nothing for the sweep to find.
  auto monitor = FinishedMonitor();
  ASSERT_EQ(SaveMonitorCheckpoint(monitor, checkpoint_), CheckpointStatus::kOk);
  EXPECT_TRUE(RemoveStaleCheckpointTmp(checkpoint_));
  EXPECT_TRUE(std::filesystem::exists(checkpoint_));
}

TEST_F(CheckpointTest, RemoveStaleCheckpointTmpSweepsACrashLeftover) {
  ASSERT_TRUE(WriteFileBytes(checkpoint_ + ".tmp", "torn half-written state"));
  EXPECT_TRUE(RemoveStaleCheckpointTmp(checkpoint_));
  EXPECT_FALSE(std::filesystem::exists(checkpoint_ + ".tmp"));
}

TEST_F(CheckpointTest, SaveOverwritesATornTmpFromAPriorCrash) {
  // Even without an explicit sweep, a save must not be confused by a torn
  // sidecar a crashed predecessor left behind: it truncates, writes and
  // atomically renames over it.
  ASSERT_TRUE(WriteFileBytes(checkpoint_ + ".tmp", "torn half-written state"));
  auto monitor = FinishedMonitor();
  ASSERT_EQ(SaveMonitorCheckpoint(monitor, checkpoint_), CheckpointStatus::kOk);
  EXPECT_FALSE(std::filesystem::exists(checkpoint_ + ".tmp"));

  StreamMonitor restored(paths_, MonitorConfig{});
  ASSERT_EQ(RestoreMonitorCheckpoint(restored, checkpoint_),
            CheckpointStatus::kOk);
  EXPECT_EQ(RenderOf(restored), RenderOf(monitor));
}

TEST_F(CheckpointTest, HostileLengthFieldDoesNotOverAllocate) {
  // payload_len claims far more than the file holds: must be kTruncated,
  // and must not attempt a giant allocation on the way.
  std::string envelope;
  binio::Writer writer(envelope);
  for (const char c : kCheckpointMagic) writer.PutU8(static_cast<std::uint8_t>(c));
  writer.PutU32(kCheckpointVersion);
  writer.PutU64(std::uint64_t{1} << 60);
  writer.PutU32(0);
  ExpectRejected(envelope, CheckpointStatus::kTruncated, "hostile length");
}

}  // namespace
}  // namespace astra::stream
