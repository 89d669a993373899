// Driver parity: both drivers — batch `analyze` and streaming `watch` — are
// thin shells over the same engine set (core/engine.hpp), so the rendered
// reports must be BYTE-IDENTICAL over the same final files.  The engine
// algebra itself (split/merge, resume, reject-reset) is proved per-engine in
// tests/core/engine_contract_test.cpp; this suite checks the remaining
// driver-owned seams: ingest-policy handling, missing/empty streams,
// arbitrary chunked growth, and the checkpoint envelope — on clean data,
// under every corruption mode, and under strict-mode rejection.
#include "stream/monitor.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/dataset.hpp"
#include "core/report.hpp"
#include "faultsim/fleet.hpp"
#include "logs/corruption.hpp"
#include "scratch_path.hpp"
#include "stream/checkpoint.hpp"
#include "util/file_io.hpp"

namespace astra::stream {
namespace {

struct Rendered {
  int code = 0;           // the CLI exit code the render path implies
  std::string out;        // the stdout bytes
};

// The batch `analyze` pipeline, byte-for-byte (astra_mrt_cli.cpp CmdAnalyze),
// rendered into a string instead of stdout.
Rendered BatchRender(const std::string& dir, const logs::IngestPolicy& policy) {
  Rendered result;
  std::ostringstream out;
  const auto paths = core::DatasetPaths::InDirectory(dir);
  const auto ingest = core::IngestFailureData(paths, policy);
  if (ingest.status == core::DatasetStatus::kMissingPrimary) {
    result.code = 2;
    return result;
  }
  core::RenderIngestReport(out, policy, ingest.memory_report,
                           ingest.het_missing ? nullptr : &ingest.het_report);
  if (ingest.status == core::DatasetStatus::kRejected) {
    result.code = 3;
    result.out = out.str();
    return result;
  }
  if (ingest.memory_errors.empty()) {
    core::RenderEmptyDatasetReport(out, ingest.quality);
    result.out = out.str();
    return result;
  }
  NodeId max_node = 0;
  SimTime lo = ingest.memory_errors.front().timestamp;
  SimTime hi = lo;
  for (const auto& r : ingest.memory_errors) {
    max_node = std::max(max_node, r.node);
    lo = std::min(lo, r.timestamp);
    hi = std::max(hi, r.timestamp);
  }
  SimTime het_start = hi;
  for (const auto& r : ingest.het_events) {
    het_start = std::min(het_start, r.timestamp);
  }
  const auto artifacts = core::BuildAnalysisArtifacts(
      ingest.memory_errors, ingest.het_events, max_node + 1,
      {lo, hi.AddSeconds(1)}, het_start, &ingest.quality);
  core::RenderAnalysisReport(out, artifacts);
  result.out = out.str();
  return result;
}

// The streaming `watch` final render (astra_mrt_cli.cpp CmdWatch after the
// follow loop), over a monitor whose streams are already consumed.
Rendered StreamRender(StreamMonitor& monitor, const logs::IngestPolicy& policy) {
  Rendered result;
  std::ostringstream out;
  const auto final_status = monitor.Finish();
  if (final_status == MonitorStatus::kMissingPrimary) {
    result.code = 2;
    return result;
  }
  core::RenderIngestReport(out, policy, monitor.MemoryReport(),
                           monitor.HetMissing() ? nullptr : &monitor.HetReport());
  if (final_status == MonitorStatus::kRejected) {
    result.code = 3;
    result.out = out.str();
    return result;
  }
  if (monitor.Delivered() == 0) {
    core::RenderEmptyDatasetReport(out, monitor.Quality());
    result.out = out.str();
    return result;
  }
  core::RenderAnalysisReport(out, monitor.Artifacts());
  result.out = out.str();
  return result;
}

class EquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestScratchPath("astra_stream_equivalence_test_");
    std::filesystem::create_directories(dir_);
    paths_ = core::DatasetPaths::InDirectory(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // A small but non-trivial campaign: enough nodes for multi-fault structure
  // without dominating the test budget.
  void WriteCampaign(std::uint64_t seed = 11, int nodes = 36) {
    faultsim::CampaignConfig config;
    config.SeedFrom(seed);
    config.node_count = nodes;
    const auto campaign = faultsim::FleetSimulator(config).Run();
    ASSERT_TRUE(core::WriteFailureData(paths_, campaign));
    ASSERT_GT(campaign.memory_errors.size(), 100u);
  }

  void Corrupt(const logs::CorruptionConfig& config) { Corrupt(config, dir_); }
  void Corrupt(const logs::CorruptionConfig& config, const std::string& dir) {
    logs::CorruptionInjector injector(config);
    ASSERT_TRUE(injector.CorruptDirectory(dir).has_value());
  }

  // One-shot: finish a fresh monitor over the current files and demand
  // byte-identity with the batch render.
  void ExpectStreamEqualsBatch(const logs::IngestPolicy& policy) {
    const Rendered batch = BatchRender(dir_, policy);
    MonitorConfig config;
    config.policy = policy;
    StreamMonitor monitor(paths_, config);
    const Rendered streamed = StreamRender(monitor, policy);
    EXPECT_EQ(batch.code, streamed.code);
    EXPECT_EQ(batch.out, streamed.out);
    EXPECT_FALSE(batch.out.empty());
  }

  std::string dir_;
  core::DatasetPaths paths_;
};

TEST_F(EquivalenceTest, CleanDataset) {
  WriteCampaign();
  ExpectStreamEqualsBatch(logs::IngestPolicy{});
}

TEST_F(EquivalenceTest, EveryCorruptionModeSeparately) {
  for (int m = 0; m < logs::kCorruptionModeCount; ++m) {
    const auto mode = static_cast<logs::CorruptionMode>(m);
    const std::string subdir = dir_ + "/" + std::string(logs::CorruptionModeName(mode));
    std::filesystem::create_directories(subdir);
    paths_ = core::DatasetPaths::InDirectory(subdir);
    WriteCampaign();

    logs::CorruptionConfig config;
    config.seed = 1000 + static_cast<std::uint64_t>(m);
    config.Set(mode, 0.3);
    logs::CorruptionInjector injector(config);
    ASSERT_TRUE(injector.CorruptDirectory(subdir).has_value());

    SCOPED_TRACE(std::string("mode ") + std::string(logs::CorruptionModeName(mode)));
    const Rendered batch = BatchRender(subdir, logs::IngestPolicy{});
    MonitorConfig monitor_config;
    StreamMonitor monitor(paths_, monitor_config);
    const Rendered streamed = StreamRender(monitor, logs::IngestPolicy{});
    EXPECT_EQ(batch.code, streamed.code);
    EXPECT_EQ(batch.out, streamed.out);
  }
}

TEST_F(EquivalenceTest, EveryCorruptionModeGrownAndRestoredMatchesBatch) {
  // Each mode at severity 0.25, the memory stream grown in chunks that cut
  // lines, with a checkpoint → restore into a fresh monitor halfway.
  for (int m = 0; m < logs::kCorruptionModeCount; ++m) {
    const auto mode = static_cast<logs::CorruptionMode>(m);
    SCOPED_TRACE(std::string("mode ") + std::string(logs::CorruptionModeName(mode)));
    const std::string subdir = dir_ + "/" + std::string(logs::CorruptionModeName(mode));
    std::filesystem::create_directories(subdir);
    paths_ = core::DatasetPaths::InDirectory(subdir);
    WriteCampaign();
    logs::CorruptionConfig config;
    config.seed = 7;
    config.Set(mode, 0.25);
    Corrupt(config, subdir);

    const auto memory_bytes = ReadFileBytes(paths_.memory_errors);
    ASSERT_TRUE(memory_bytes.has_value());
    ASSERT_TRUE(WriteFileBytes(paths_.memory_errors, ""));
    const auto grow = [&](StreamMonitor& monitor, std::size_t from, std::size_t to) {
      for (std::size_t at = from; at < to; at += 65537) {
        std::ofstream out(paths_.memory_errors, std::ios::app | std::ios::binary);
        out << std::string_view(*memory_bytes).substr(at, std::min<std::size_t>(65537, to - at));
        out.close();
        (void)monitor.Poll();
      }
    };
    const std::string checkpoint = subdir + "/watch.ckpt";
    const std::size_t half = memory_bytes->size() / 2;
    {
      StreamMonitor first(paths_, MonitorConfig{});
      grow(first, 0, half);
      ASSERT_EQ(SaveMonitorCheckpoint(first, checkpoint), CheckpointStatus::kOk);
    }
    StreamMonitor resumed(paths_, MonitorConfig{});
    ASSERT_EQ(RestoreMonitorCheckpoint(resumed, checkpoint), CheckpointStatus::kOk);
    grow(resumed, half, memory_bytes->size());

    const Rendered streamed = StreamRender(resumed, logs::IngestPolicy{});
    const Rendered batch = BatchRender(subdir, logs::IngestPolicy{});
    EXPECT_EQ(batch.code, streamed.code);
    EXPECT_EQ(batch.out, streamed.out);
  }
}

TEST_F(EquivalenceTest, AllCorruptionModesAtOnce) {
  WriteCampaign();
  logs::CorruptionConfig config;
  config.seed = 77;
  config.SetAll(0.25);
  Corrupt(config);
  ExpectStreamEqualsBatch(logs::IngestPolicy{});
}

TEST_F(EquivalenceTest, StrictRejectionMatches) {
  WriteCampaign();
  logs::CorruptionConfig config;
  config.seed = 9;
  config.SetAll(0.4);
  Corrupt(config);

  const auto policy = logs::IngestPolicy::Strict();
  const Rendered batch = BatchRender(dir_, policy);
  MonitorConfig monitor_config;
  monitor_config.policy = policy;
  StreamMonitor monitor(paths_, monitor_config);
  const Rendered streamed = StreamRender(monitor, policy);
  EXPECT_EQ(batch.code, 3);  // heavy damage must actually trip strict mode
  EXPECT_EQ(streamed.code, 3);
  EXPECT_EQ(batch.out, streamed.out);
}

TEST_F(EquivalenceTest, MissingPrimaryStreamMatches) {
  // No files at all: both paths report the unreadable primary stream.
  const Rendered batch = BatchRender(dir_, logs::IngestPolicy{});
  MonitorConfig config;
  StreamMonitor monitor(paths_, config);
  const Rendered streamed = StreamRender(monitor, logs::IngestPolicy{});
  EXPECT_EQ(batch.code, 2);
  EXPECT_EQ(streamed.code, 2);
}

TEST_F(EquivalenceTest, EmptyDatasetMatches) {
  // Headers only: ingest succeeds but delivers nothing usable.
  {
    std::ofstream memory(paths_.memory_errors);
    memory << logs::MemoryErrorHeader() << '\n';
    std::ofstream het(paths_.het_events);
    het << logs::HetHeader() << '\n';
  }
  ExpectStreamEqualsBatch(logs::IngestPolicy{});
}

TEST_F(EquivalenceTest, ChunkedGrowthNotAtLineBoundaries) {
  WriteCampaign();
  // Move the full files aside, then grow fresh ones chunk by chunk with cuts
  // that routinely fall mid-line, polling between appends.
  const auto memory_bytes = ReadFileBytes(paths_.memory_errors);
  const auto het_bytes = ReadFileBytes(paths_.het_events);
  ASSERT_TRUE(memory_bytes.has_value());
  ASSERT_TRUE(het_bytes.has_value());
  std::filesystem::remove(paths_.memory_errors);
  std::filesystem::remove(paths_.het_events);

  MonitorConfig config;
  StreamMonitor monitor(paths_, config);
  EXPECT_EQ(monitor.Poll(), MonitorStatus::kMissingPrimary);

  const auto append = [](const std::string& path, std::string_view bytes) {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  std::size_t mem_at = 0;
  std::size_t het_at = 0;
  while (mem_at < memory_bytes->size() || het_at < het_bytes->size()) {
    if (mem_at < memory_bytes->size()) {
      const std::size_t chunk =
          std::min<std::size_t>(30011, memory_bytes->size() - mem_at);
      append(paths_.memory_errors,
             std::string_view(*memory_bytes).substr(mem_at, chunk));
      mem_at += chunk;
    }
    if (het_at < het_bytes->size()) {
      const std::size_t chunk =
          std::min<std::size_t>(4099, het_bytes->size() - het_at);
      append(paths_.het_events,
             std::string_view(*het_bytes).substr(het_at, chunk));
      het_at += chunk;
    }
    const auto status = monitor.Poll();
    EXPECT_TRUE(status == MonitorStatus::kAdvanced ||
                status == MonitorStatus::kIdle);
  }

  const Rendered streamed = StreamRender(monitor, logs::IngestPolicy{});
  const Rendered batch = BatchRender(dir_, logs::IngestPolicy{});
  EXPECT_EQ(batch.code, streamed.code);
  EXPECT_EQ(batch.out, streamed.out);
}

// The acceptance criterion: a checkpoint taken mid-stream, restored into a
// FRESH monitor, continued over the remaining growth, renders byte-identical
// to batch analysis of the final files.
TEST_F(EquivalenceTest, MidStreamCheckpointRestoreCycle) {
  WriteCampaign();
  const auto memory_bytes = ReadFileBytes(paths_.memory_errors);
  ASSERT_TRUE(memory_bytes.has_value());
  std::filesystem::remove(paths_.memory_errors);

  const std::string checkpoint = dir_ + "/watch.ckpt";
  const auto append = [&](std::string_view bytes) {
    std::ofstream out(paths_.memory_errors, std::ios::app | std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  // Monitor A sees roughly the first half (cut mid-line), then checkpoints.
  {
    MonitorConfig config;
    StreamMonitor a(paths_, config);
    append(std::string_view(*memory_bytes).substr(0, memory_bytes->size() / 2));
    const auto status = a.Poll();
    EXPECT_EQ(status, MonitorStatus::kAdvanced);
    EXPECT_GT(a.Delivered(), 0u);
    ASSERT_EQ(SaveMonitorCheckpoint(a, checkpoint), CheckpointStatus::kOk);
  }  // A is gone: the restart really starts from the checkpoint alone.

  MonitorConfig config;
  StreamMonitor b(paths_, config);
  ASSERT_EQ(RestoreMonitorCheckpoint(b, checkpoint), CheckpointStatus::kOk);
  EXPECT_GT(b.Delivered(), 0u);

  append(std::string_view(*memory_bytes).substr(memory_bytes->size() / 2));
  (void)b.Poll();

  const Rendered streamed = StreamRender(b, logs::IngestPolicy{});
  const Rendered batch = BatchRender(dir_, logs::IngestPolicy{});
  EXPECT_EQ(batch.code, streamed.code);
  EXPECT_EQ(batch.out, streamed.out);
  EXPECT_FALSE(streamed.out.empty());
}

}  // namespace
}  // namespace astra::stream
