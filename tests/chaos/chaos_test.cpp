// Chaos suite: the whole streaming pipeline — poll, finish, checkpoint save
// and restore, for one stream and for astra_serve's whole tree — runs under
// seeded syscall-level fault injection (io::FaultyIo) and must end every
// scenario in one of the three documented outcomes:
//
//   retryable  — bounded transient faults are absorbed by retries and the
//                rendered report is BYTE-IDENTICAL to the clean run;
//   degradable — a persistently sick stream degrades to the same report the
//                pipeline produces when that stream is absent (DataQuality
//                caveats, exit 0), never to silent data loss;
//   fatal      — persistent faults on a required artifact surface as a
//                specific non-kOk status after the retry budget, with the
//                previous on-disk artifact left intact.
//
// The injection seed comes from ASTRA_CHAOS_SEED (CI sweeps several), so the
// same binary exercises different fault interleavings while every individual
// run stays deterministic.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>

#include "core/dataset.hpp"
#include "core/report.hpp"
#include "faultsim/fleet.hpp"
#include "serve/daemon.hpp"
#include "serve/fleet_dataset.hpp"
#include "stream/checkpoint.hpp"
#include "stream/monitor.hpp"
#include "util/io_faults.hpp"
#include "util/strings.hpp"

namespace astra::stream {
namespace {

std::uint64_t ChaosSeed() {
  if (const char* env = std::getenv("ASTRA_CHAOS_SEED")) {
    if (const auto parsed = ParseUint64(env)) return *parsed;
  }
  return 1;
}

// The watch CLI's final render (ingest accounting + analysis report) — what
// "byte-identical report" means throughout this suite.
std::string RenderAll(StreamMonitor& monitor, const logs::IngestPolicy& policy) {
  std::ostringstream out;
  core::RenderIngestReport(out, policy, monitor.MemoryReport(),
                           monitor.HetMissing() ? nullptr : &monitor.HetReport());
  core::RenderAnalysisReport(out, monitor.Artifacts());
  return out.str();
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "astra_chaos_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
    paths_ = core::DatasetPaths::InDirectory(dir_);
    checkpoint_ = dir_ + "/watch.ckpt";

    faultsim::CampaignConfig config;
    config.SeedFrom(11);
    config.node_count = 24;
    campaign_ = faultsim::FleetSimulator(config).Run();
    ASSERT_TRUE(core::WriteFailureData(paths_, campaign_));

    // The golden render, computed before any fault source is installed.
    StreamMonitor clean(paths_, MonitorConfig{});
    ASSERT_EQ(clean.Finish(), MonitorStatus::kAdvanced);
    golden_ = RenderAll(clean, logs::IngestPolicy{});
    ASSERT_FALSE(golden_.empty());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // A monitor whose in-poll retry budget (no sleeping) exceeds the
  // transience bound the tests configure (2), so bounded single-kind faults
  // are guaranteed to be absorbed.  Tests mixing several fault kinds pass a
  // larger budget: the transience bound is per-kind, so alternating kinds
  // can string together longer combined failure streaks.
  static MonitorConfig RetryingConfig(int attempts = 4) {
    MonitorConfig config;
    config.io_retry.max_attempts = attempts;
    return config;
  }

  static RetryPolicy CheckpointRetry() {
    RetryPolicy retry;
    retry.max_attempts = 4;
    return retry;
  }

  // Drive a monitor to completion under whatever Io is installed.
  static void DrainAndFinish(StreamMonitor& monitor) {
    for (int i = 0; i < 8; ++i) {
      const auto status = monitor.Poll();
      ASSERT_NE(status, MonitorStatus::kRejected);
    }
    ASSERT_EQ(monitor.Finish(), MonitorStatus::kAdvanced);
  }

  std::string dir_;
  core::DatasetPaths paths_;
  std::string checkpoint_;
  faultsim::CampaignResult campaign_;
  std::string golden_;
};

// --- retryable: transient faults, byte-identical reports ----------------------

TEST_F(ChaosTest, TransientOpenFailuresAreInvisibleInTheReport) {
  io::FaultConfig config;
  config.seed = ChaosSeed();
  config.open_fail = 1.0;  // every map attempt wants to fail...
  config.max_consecutive = 2;  // ...but never more than twice in a row
  io::FaultyIo faulty(config);
  io::ScopedIo scope(faulty);

  StreamMonitor monitor(paths_, RetryingConfig());
  DrainAndFinish(monitor);
  EXPECT_EQ(RenderAll(monitor, logs::IngestPolicy{}), golden_);
  EXPECT_GT(monitor.IoRetries(), 0u);
  EXPECT_GT(faulty.Stats().Count(io::Fault::kOpenFail), 0u);
}

TEST_F(ChaosTest, TransientMmapFailuresAreInvisibleInTheReport) {
  io::FaultConfig config;
  config.seed = ChaosSeed();
  config.map_fail = 1.0;
  config.max_consecutive = 2;
  io::FaultyIo faulty(config);
  io::ScopedIo scope(faulty);

  StreamMonitor monitor(paths_, RetryingConfig());
  DrainAndFinish(monitor);
  EXPECT_EQ(RenderAll(monitor, logs::IngestPolicy{}), golden_);
  EXPECT_GT(monitor.IoRetries(), 0u);
  EXPECT_GT(faulty.Stats().Count(io::Fault::kMapFail), 0u);
}

TEST_F(ChaosTest, MixedTransientFaultsStillConverge) {
  io::FaultConfig config;
  config.seed = ChaosSeed();
  config.open_fail = 0.5;
  config.map_fail = 0.5;
  config.max_consecutive = 2;
  io::FaultyIo faulty(config);
  io::ScopedIo scope(faulty);

  StreamMonitor monitor(paths_, RetryingConfig(64));
  DrainAndFinish(monitor);
  EXPECT_EQ(RenderAll(monitor, logs::IngestPolicy{}), golden_);
}

// --- checkpoint save under environmental failure ------------------------------

TEST_F(ChaosTest, EnospcMidCheckpointIsFatalButKeepsThePreviousCheckpoint) {
  // Save a good checkpoint first, then fill the disk (persistent torn
  // writes).  The failed save must report kIoError, sweep its own tmp, and
  // leave the previous checkpoint fully restorable.
  StreamMonitor monitor(paths_, MonitorConfig{});
  ASSERT_EQ(monitor.Finish(), MonitorStatus::kAdvanced);
  ASSERT_EQ(SaveMonitorCheckpoint(monitor, checkpoint_), CheckpointStatus::kOk);

  io::FaultConfig config;
  config.seed = ChaosSeed();
  config.write_torn = 1.0;
  config.max_consecutive = 0;  // persistent: every write attempt tears
  io::FaultyIo faulty(config);
  {
    io::ScopedIo scope(faulty);
    EXPECT_EQ(SaveMonitorCheckpoint(monitor, checkpoint_, CheckpointRetry()),
              CheckpointStatus::kIoError);
  }
  EXPECT_GT(faulty.Stats().Count(io::Fault::kTornWrite), 0u);
  EXPECT_FALSE(std::filesystem::exists(checkpoint_ + ".tmp"));

  StreamMonitor restored(paths_, MonitorConfig{});
  ASSERT_EQ(RestoreMonitorCheckpoint(restored, checkpoint_),
            CheckpointStatus::kOk);
  EXPECT_EQ(RenderAll(restored, logs::IngestPolicy{}), golden_);
}

TEST_F(ChaosTest, TransientRenameFailureIsAbsorbedBySaveRetries) {
  StreamMonitor monitor(paths_, MonitorConfig{});
  ASSERT_EQ(monitor.Finish(), MonitorStatus::kAdvanced);

  io::FaultConfig config;
  config.seed = ChaosSeed();
  config.rename_fail = 1.0;
  config.max_consecutive = 2;
  io::FaultyIo faulty(config);
  {
    io::ScopedIo scope(faulty);
    EXPECT_EQ(SaveMonitorCheckpoint(monitor, checkpoint_, CheckpointRetry()),
              CheckpointStatus::kOk);
  }
  EXPECT_EQ(faulty.Stats().Count(io::Fault::kRenameFail), 2u);

  StreamMonitor restored(paths_, MonitorConfig{});
  ASSERT_EQ(RestoreMonitorCheckpoint(restored, checkpoint_),
            CheckpointStatus::kOk);
  EXPECT_EQ(RenderAll(restored, logs::IngestPolicy{}), golden_);
}

TEST_F(ChaosTest, PersistentRenameFailureIsFatalAndPreservesTheOldCheckpoint) {
  StreamMonitor monitor(paths_, MonitorConfig{});
  ASSERT_EQ(monitor.Finish(), MonitorStatus::kAdvanced);
  ASSERT_EQ(SaveMonitorCheckpoint(monitor, checkpoint_), CheckpointStatus::kOk);
  const auto before = io::DefaultIo().ReadFile(checkpoint_);
  ASSERT_TRUE(before.has_value());

  io::FaultConfig config;
  config.seed = ChaosSeed();
  config.rename_fail = 1.0;
  config.max_consecutive = 0;
  io::FaultyIo faulty(config);
  {
    io::ScopedIo scope(faulty);
    EXPECT_EQ(SaveMonitorCheckpoint(monitor, checkpoint_, CheckpointRetry()),
              CheckpointStatus::kIoError);
  }
  // The target was never touched (rename is the commit point) and the tmp
  // was swept on the way out.
  EXPECT_EQ(io::DefaultIo().ReadFile(checkpoint_), before);
  EXPECT_FALSE(std::filesystem::exists(checkpoint_ + ".tmp"));
}

// --- torn tmp files from a crashed save ---------------------------------------

TEST_F(ChaosTest, TornTmpFromACrashedSaveIsSweptOnRestart) {
  // Simulate the crash aftermath directly: a garbage sidecar next to a good
  // checkpoint.  Startup sweeps it; save and restore then work unaffected.
  StreamMonitor monitor(paths_, MonitorConfig{});
  ASSERT_EQ(monitor.Finish(), MonitorStatus::kAdvanced);
  ASSERT_TRUE(io::DefaultIo().WriteFile(checkpoint_ + ".tmp", "torn garbage"));

  ASSERT_TRUE(RemoveStaleCheckpointTmp(checkpoint_));
  EXPECT_FALSE(std::filesystem::exists(checkpoint_ + ".tmp"));
  ASSERT_EQ(SaveMonitorCheckpoint(monitor, checkpoint_), CheckpointStatus::kOk);

  StreamMonitor restored(paths_, MonitorConfig{});
  ASSERT_EQ(RestoreMonitorCheckpoint(restored, checkpoint_),
            CheckpointStatus::kOk);
  EXPECT_EQ(RenderAll(restored, logs::IngestPolicy{}), golden_);
}

// --- checkpoint restore under environmental failure ---------------------------

TEST_F(ChaosTest, RestoreRetriesThroughTransientReadFailures) {
  StreamMonitor monitor(paths_, MonitorConfig{});
  ASSERT_EQ(monitor.Finish(), MonitorStatus::kAdvanced);
  ASSERT_EQ(SaveMonitorCheckpoint(monitor, checkpoint_), CheckpointStatus::kOk);

  io::FaultConfig config;
  config.seed = ChaosSeed();
  config.open_fail = 1.0;
  config.max_consecutive = 2;
  io::FaultyIo faulty(config);
  io::ScopedIo scope(faulty);

  StreamMonitor restored(paths_, MonitorConfig{});
  ASSERT_EQ(RestoreMonitorCheckpoint(restored, checkpoint_, CheckpointRetry()),
            CheckpointStatus::kOk);
  EXPECT_EQ(RenderAll(restored, logs::IngestPolicy{}), golden_);
  EXPECT_EQ(faulty.Stats().Count(io::Fault::kOpenFail), 2u);
}

TEST_F(ChaosTest, RestoreRetriesThroughShortReads) {
  // A short read of the checkpoint looks like truncation — retryable, since
  // re-reading delivers the whole file once the transient passes.
  StreamMonitor monitor(paths_, MonitorConfig{});
  ASSERT_EQ(monitor.Finish(), MonitorStatus::kAdvanced);
  ASSERT_EQ(SaveMonitorCheckpoint(monitor, checkpoint_), CheckpointStatus::kOk);

  io::FaultConfig config;
  config.seed = ChaosSeed();
  config.read_short = 1.0;
  config.max_consecutive = 2;
  io::FaultyIo faulty(config);
  io::ScopedIo scope(faulty);

  StreamMonitor restored(paths_, MonitorConfig{});
  ASSERT_EQ(RestoreMonitorCheckpoint(restored, checkpoint_, CheckpointRetry()),
            CheckpointStatus::kOk);
  EXPECT_EQ(RenderAll(restored, logs::IngestPolicy{}), golden_);
  EXPECT_GT(faulty.Stats().Count(io::Fault::kShortRead), 0u);
}

TEST_F(ChaosTest, PersistentlyUnreadableCheckpointIsFatalAfterTheBudget) {
  StreamMonitor monitor(paths_, MonitorConfig{});
  ASSERT_EQ(monitor.Finish(), MonitorStatus::kAdvanced);
  ASSERT_EQ(SaveMonitorCheckpoint(monitor, checkpoint_), CheckpointStatus::kOk);

  io::FaultConfig config;
  config.seed = ChaosSeed();
  config.open_fail = 1.0;
  config.max_consecutive = 0;
  io::FaultyIo faulty(config);
  io::ScopedIo scope(faulty);

  StreamMonitor restored(paths_, MonitorConfig{});
  EXPECT_EQ(RestoreMonitorCheckpoint(restored, checkpoint_, CheckpointRetry()),
            CheckpointStatus::kIoError);
  EXPECT_EQ(restored.Delivered(), 0u);  // reject-and-reset, not half-restored
  EXPECT_EQ(faulty.Stats().Count(io::Fault::kOpenFail), 4u);  // full budget
}

// --- rotation racing the reader -----------------------------------------------

TEST_F(ChaosTest, RotationDuringFaultyReadsKeepsAccountingConsistent) {
  io::FaultConfig config;
  config.seed = ChaosSeed();
  config.open_fail = 0.5;
  config.max_consecutive = 2;
  io::FaultyIo faulty(config);
  io::ScopedIo scope(faulty);

  TailReader<logs::MemoryErrorRecord> reader(paths_.memory_errors,
                                             logs::IngestPolicy{},
                                             RetryingConfig().io_retry);
  std::uint64_t delivered = 0;
  const auto sink = [&delivered](const logs::MemoryErrorRecord&) {
    ++delivered;
  };
  ASSERT_NE(reader.Poll(sink), TailStatus::kMissing);  // retry absorbs faults
  const std::uint64_t before_rotation = delivered;
  ASSERT_GT(before_rotation, 0u);

  // Rotate: replace the log with a shorter file (its own header + a prefix
  // of the same records).  The reader restarts at byte 0; dedup recognises
  // every re-read record, so delivery and parse accounting stay exact.
  const auto bytes = io::DefaultIo().ReadFile(paths_.memory_errors);
  ASSERT_TRUE(bytes.has_value());
  const std::size_t cut = bytes->find('\n', bytes->size() / 2);
  ASSERT_NE(cut, std::string::npos);
  ASSERT_TRUE(
      io::DefaultIo().WriteFile(paths_.memory_errors, bytes->substr(0, cut + 1)));

  EXPECT_EQ(reader.Poll(sink), TailStatus::kRotated);
  reader.Finish(sink);
  EXPECT_EQ(reader.Rotations(), 1u);
  // Every re-read record was recognised as a duplicate and dropped, so
  // delivery equals unique parses — no record delivered twice, none lost.
  EXPECT_GT(reader.Report().duplicates_removed, 0u);
  EXPECT_EQ(delivered, reader.Report().stats.parsed -
                           reader.Report().duplicates_removed);
}

// --- degradable: a persistently sick secondary stream -------------------------

TEST_F(ChaosTest, PersistentHetStreamLossDegradesToTheMissingStreamReport) {
  // Golden for degradation: the same dataset with het_events absent.
  const std::string degraded_dir = dir_ + "/no_het";
  std::filesystem::create_directories(degraded_dir);
  const auto degraded_paths = core::DatasetPaths::InDirectory(degraded_dir);
  std::filesystem::copy_file(paths_.memory_errors, degraded_paths.memory_errors);
  StreamMonitor no_het(degraded_paths, MonitorConfig{});
  ASSERT_EQ(no_het.Finish(), MonitorStatus::kAdvanced);
  ASSERT_TRUE(no_het.HetMissing());
  const std::string degraded_golden = RenderAll(no_het, logs::IngestPolicy{});
  ASSERT_NE(degraded_golden, golden_);

  // Now make ONLY the het stream persistently unreadable in the full
  // dataset: the pipeline must degrade to exactly that report — quality
  // caveats, zero silent loss on the healthy stream.
  io::FaultConfig config;
  config.seed = ChaosSeed();
  config.open_fail = 1.0;
  config.map_fail = 1.0;
  config.max_consecutive = 0;
  config.path_filter = "het_events";
  io::FaultyIo faulty(config);
  io::ScopedIo scope(faulty);

  StreamMonitor monitor(paths_, RetryingConfig());
  ASSERT_EQ(monitor.Finish(), MonitorStatus::kAdvanced);
  EXPECT_TRUE(monitor.HetMissing());
  EXPECT_TRUE(monitor.Quality().stream_missing);
  EXPECT_EQ(RenderAll(monitor, logs::IngestPolicy{}), degraded_golden);
}

// --- determinism --------------------------------------------------------------

TEST_F(ChaosTest, SameSeedSameFaultScheduleSameOutcome) {
  const auto run = [&](std::uint64_t seed) {
    io::FaultConfig config;
    config.seed = seed;
    config.open_fail = 0.4;
    config.map_fail = 0.3;
    config.max_consecutive = 2;
    io::FaultyIo faulty(config);
    io::ScopedIo scope(faulty);
    StreamMonitor monitor(paths_, RetryingConfig());
    for (int i = 0; i < 8; ++i) (void)monitor.Poll();
    (void)monitor.Finish();
    return std::make_tuple(RenderAll(monitor, logs::IngestPolicy{}),
                           faulty.Stats().Total(), monitor.IoRetries());
  };
  const auto first = run(ChaosSeed());
  const auto second = run(ChaosSeed());
  EXPECT_EQ(first, second);
  EXPECT_EQ(std::get<0>(first), golden_);  // and still byte-identical
  EXPECT_GT(std::get<1>(first), 0u);
}

// --- astra_serve's whole-tree checkpoint ----------------------------------------

// A drained 2x2 fleet, checkpointed and restored through ServeDaemon.
class TreeCheckpointChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "astra_tree_chaos_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    faultsim::CampaignConfig config;
    config.SeedFrom(11);
    config.node_count = 24;
    options_.root = dir_ + "/fleet";
    options_.topology = serve::ServeTopology{2, 2};
    options_.checkpoint_dir = dir_ + "/ckp";
    // The transience bound is per fault kind: a write streak of two, then a
    // sync failure on the forced success, twice over, spends nine attempts
    // before the tmp is both written and synced.
    options_.retry.max_attempts = 12;
    ASSERT_TRUE(serve::WriteFleetDataset(faultsim::FleetSimulator(config).Run(),
                                         options_.root, options_.topology));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string CheckpointPath() const {
    return options_.checkpoint_dir + "/manifest.ckp";
  }

  std::string dir_;
  serve::ServeOptions options_;
};

TEST_F(TreeCheckpointChaosTest, TransientWriteRenameAndSyncFaultsAreAbsorbed) {
  serve::ServeDaemon daemon(options_);
  std::string error;
  ASSERT_TRUE(daemon.Init(&error)) << error;
  ASSERT_EQ(daemon.Drain(), 0u);
  const std::string golden = daemon.FleetReport();
  ASSERT_EQ(golden.find("analysis skipped"), std::string::npos);

  io::FaultConfig config;
  config.seed = ChaosSeed();
  config.write_torn = 1.0;
  config.rename_fail = 1.0;
  config.sync_fail = 1.0;
  config.max_consecutive = 2;
  io::FaultyIo faulty(config);
  {
    io::ScopedIo scope(faulty);
    ASSERT_TRUE(daemon.SaveCheckpoint());
  }
  EXPECT_GT(faulty.Stats().Count(io::Fault::kTornWrite), 0u);
  EXPECT_GT(faulty.Stats().Count(io::Fault::kRenameFail), 0u);
  EXPECT_GT(faulty.Stats().Count(io::Fault::kSyncFail), 0u);
  EXPECT_FALSE(std::filesystem::exists(CheckpointPath() + ".tmp"));

  std::filesystem::remove_all(options_.root);  // the checkpoint must answer
  serve::ServeDaemon restored(options_);
  ASSERT_TRUE(restored.Init(&error)) << error;
  EXPECT_EQ(restored.Drain(), 0u);
  EXPECT_EQ(restored.FleetReport(), golden);
}

TEST_F(TreeCheckpointChaosTest, PersistentRenameFailureKeepsThePreviousFile) {
  serve::ServeDaemon daemon(options_);
  std::string error;
  ASSERT_TRUE(daemon.Init(&error)) << error;
  daemon.PollAll();
  const std::string previous = daemon.FleetReport();
  ASSERT_TRUE(daemon.SaveCheckpoint());
  const auto before = io::DefaultIo().ReadFile(CheckpointPath());
  ASSERT_TRUE(before.has_value());
  ASSERT_EQ(daemon.Drain(), 0u);
  ASSERT_NE(daemon.FleetReport(), previous);  // the drain moved the report

  io::FaultConfig config;
  config.seed = ChaosSeed();
  config.rename_fail = 1.0;
  config.max_consecutive = 0;
  io::FaultyIo faulty(config);
  {
    io::ScopedIo scope(faulty);
    EXPECT_FALSE(daemon.SaveCheckpoint());
  }
  EXPECT_EQ(faulty.Stats().Count(io::Fault::kRenameFail), 12u);  // full budget
  EXPECT_EQ(io::DefaultIo().ReadFile(CheckpointPath()), before);
  EXPECT_FALSE(std::filesystem::exists(CheckpointPath() + ".tmp"));

  serve::ServeDaemon restored(options_);
  ASSERT_TRUE(restored.Init(&error)) << error;
  EXPECT_EQ(restored.FleetReport(), previous);
}

}  // namespace
}  // namespace astra::stream
