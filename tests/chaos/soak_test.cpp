// Kill-and-restore soak: 50 cycles of append → poll → checkpoint → process
// death → restore, the whole time under randomized-but-seeded I/O fault
// injection on every map, read, write, rename and fsync.  The acceptance
// criterion is the tentpole guarantee end-to-end: after the last cycle the
// restored pipeline renders a report BYTE-IDENTICAL to a clean, single-pass
// run over the same final files — and the entire soak is a pure function of
// the injection seed (ASTRA_CHAOS_SEED), so any failure replays exactly.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/dataset.hpp"
#include "core/report.hpp"
#include "faultsim/fleet.hpp"
#include "scratch_path.hpp"
#include "stream/checkpoint.hpp"
#include "stream/monitor.hpp"
#include "util/io_faults.hpp"
#include "util/strings.hpp"

namespace astra::stream {
namespace {

constexpr int kCycles = 50;

std::uint64_t ChaosSeed() {
  if (const char* env = std::getenv("ASTRA_CHAOS_SEED")) {
    if (const auto parsed = ParseUint64(env)) return *parsed;
  }
  return 1;
}

std::string RenderAll(StreamMonitor& monitor, const logs::IngestPolicy& policy) {
  std::ostringstream out;
  core::RenderIngestReport(out, policy, monitor.MemoryReport(),
                           monitor.HetMissing() ? nullptr : &monitor.HetReport());
  core::RenderAnalysisReport(out, monitor.Artifacts());
  return out.str();
}

// Faults on every operation the soak exercises.  max_consecutive keeps each
// kind transient; the generous per-op retry budgets below absorb even
// adversarial alternation across kinds (the bound is per-kind, so distinct
// kinds can take turns failing a combined operation).
io::FaultConfig SoakFaults(std::uint64_t seed) {
  io::FaultConfig config;
  config.seed = seed;
  config.open_fail = 0.15;
  config.read_fail = 0.15;
  config.read_short = 0.15;
  config.map_fail = 0.15;
  config.write_fail = 0.15;
  config.write_torn = 0.15;
  config.rename_fail = 0.15;
  config.sync_fail = 0.15;
  config.max_consecutive = 2;
  return config;
}

RetryPolicy SoakRetry() {
  RetryPolicy retry;
  retry.max_attempts = 32;  // back-to-back (null sleep): depth is cheap
  return retry;
}

struct SoakOutcome {
  std::string render;
  std::uint64_t faults_injected = 0;
  std::uint64_t checkpoint_restores = 0;
};

// One complete soak in its own directory.  `memory_bytes`/`het_bytes` are
// the final file contents; the memory log grows in kCycles byte slices whose
// cuts routinely fall mid-line.
SoakOutcome RunSoak(const std::string& dir, std::uint64_t seed,
                    const std::string& memory_bytes,
                    const std::string& het_bytes) {
  SoakOutcome outcome;
  std::filesystem::create_directories(dir);
  const auto paths = core::DatasetPaths::InDirectory(dir);
  const std::string checkpoint = dir + "/soak.ckpt";
  EXPECT_TRUE(io::DefaultIo().WriteFile(paths.het_events, het_bytes));

  const auto append = [&](std::string_view bytes) {
    // The producer side of the pipeline: plain appends, outside the seam —
    // chaos is injected on the CONSUMER's syscalls only.
    std::ofstream out(paths.memory_errors, std::ios::app | std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  const std::size_t slice = memory_bytes.size() / kCycles + 1;

  io::FaultyIo faulty(SoakFaults(seed));
  io::ScopedIo scope(faulty);
  MonitorConfig config;
  config.io_retry = SoakRetry();

  std::size_t at = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const std::size_t chunk = std::min(slice, memory_bytes.size() - at);
    append(std::string_view(memory_bytes).substr(at, chunk));
    at += chunk;

    // "Boot": a fresh process restores the previous cycle's checkpoint.
    StreamMonitor monitor(paths, config);
    if (cycle > 0) {
      EXPECT_EQ(RestoreMonitorCheckpoint(monitor, checkpoint, SoakRetry()),
                CheckpointStatus::kOk)
          << "cycle " << cycle;
      ++outcome.checkpoint_restores;
    }
    const auto status = monitor.Poll();
    EXPECT_NE(status, MonitorStatus::kRejected) << "cycle " << cycle;
    EXPECT_EQ(SaveMonitorCheckpoint(monitor, checkpoint, SoakRetry()),
              CheckpointStatus::kOk)
        << "cycle " << cycle;
  }  // "kill": the monitor dies with state persisted only in the checkpoint

  EXPECT_EQ(at, memory_bytes.size());
  StreamMonitor survivor(paths, config);
  EXPECT_EQ(RestoreMonitorCheckpoint(survivor, checkpoint, SoakRetry()),
            CheckpointStatus::kOk);
  ++outcome.checkpoint_restores;
  EXPECT_EQ(survivor.Finish(), MonitorStatus::kAdvanced);
  outcome.render = RenderAll(survivor, logs::IngestPolicy{});
  outcome.faults_injected = faulty.Stats().Total();
  return outcome;
}

class SoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestScratchPath("astra_chaos_soak_test_");
    std::filesystem::create_directories(dir_);

    // The reference dataset and its clean single-pass render.
    const std::string golden_dir = dir_ + "/golden";
    std::filesystem::create_directories(golden_dir);
    const auto golden_paths = core::DatasetPaths::InDirectory(golden_dir);
    faultsim::CampaignConfig config;
    config.SeedFrom(11);
    config.node_count = 24;
    const auto campaign = faultsim::FleetSimulator(config).Run();
    ASSERT_TRUE(core::WriteFailureData(golden_paths, campaign));

    const auto memory = io::DefaultIo().ReadFile(golden_paths.memory_errors);
    const auto het = io::DefaultIo().ReadFile(golden_paths.het_events);
    ASSERT_TRUE(memory.has_value());
    ASSERT_TRUE(het.has_value());
    memory_bytes_ = *memory;
    het_bytes_ = *het;
    ASSERT_GT(memory_bytes_.size(), static_cast<std::size_t>(kCycles));

    StreamMonitor clean(golden_paths, MonitorConfig{});
    ASSERT_EQ(clean.Finish(), MonitorStatus::kAdvanced);
    golden_ = RenderAll(clean, logs::IngestPolicy{});
    ASSERT_FALSE(golden_.empty());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  std::string memory_bytes_;
  std::string het_bytes_;
  std::string golden_;
};

TEST_F(SoakTest, FiftyKillRestoreCyclesUnderFaultsRenderByteIdentical) {
  const auto outcome = RunSoak(dir_ + "/run", ChaosSeed(), memory_bytes_,
                               het_bytes_);
  EXPECT_EQ(outcome.render, golden_);
  EXPECT_EQ(outcome.checkpoint_restores,
            static_cast<std::uint64_t>(kCycles));
  // The soak must actually have been chaotic — a quiet FaultyIo proves
  // nothing about recovery.
  EXPECT_GT(outcome.faults_injected, 0u);
}

TEST_F(SoakTest, TheWholeSoakIsAPureFunctionOfTheSeed) {
  const auto first = RunSoak(dir_ + "/a", ChaosSeed(), memory_bytes_,
                             het_bytes_);
  const auto second = RunSoak(dir_ + "/b", ChaosSeed(), memory_bytes_,
                              het_bytes_);
  EXPECT_EQ(first.render, second.render);
  EXPECT_EQ(first.faults_injected, second.faults_injected);
  EXPECT_EQ(first.render, golden_);
}

}  // namespace
}  // namespace astra::stream
