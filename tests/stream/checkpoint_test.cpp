// Checkpoint fuzzing: a damaged checkpoint — any single corrupted byte, any
// truncation point, any forged envelope — must be REJECTED with a specific
// status, never crash, and never leave the monitor half-restored.
#include "stream/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "core/dataset.hpp"
#include "core/report.hpp"
#include "faultsim/fleet.hpp"
#include "util/binio.hpp"
#include "util/file_io.hpp"

namespace astra::stream {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "astra_stream_checkpoint_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
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

  std::string dir_;
  core::DatasetPaths paths_;
  std::string checkpoint_;
};

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

TEST_F(CheckpointTest, SavedEnvelopeDeclaresVersionFour) {
  const std::string clean = SavedBytes();
  ASSERT_GT(clean.size(), 12u);
  binio::Reader header(std::string_view(clean).substr(kCheckpointMagic.size()));
  EXPECT_EQ(header.GetU32(), 4u);
  EXPECT_EQ(kCheckpointVersion, 4u);
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
