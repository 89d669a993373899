// Checkpoint mutation fuzzer: real checkpoint payloads — a `watch
// --checkpoint` monitor payload and a 2x3 astra_serve tree — mutated by byte
// flips, dropped or duplicated 8-byte-aligned ranges, and ±1 on
// little-endian u64 words.  Each mutant is re-wrapped in a CRC-valid
// envelope, so the decoders and the checkpoint rule meet it, not the
// checksum.  Every mutant must end in one of two outcomes:
//
//   refused  — the monitor restore returns kBadPayload and leaves a monitor
//              byte for byte as fresh as a new one; the tree's Init fails;
//   accepted — the restored state re-saves byte-identical (the rule keeps
//              nothing else) and renders without crashing.
//
// The mutation stream is seeded from ASTRA_CHAOS_SEED, like the rest of this
// binary, so each seed fuzzes different mutants and every run replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>

#include "core/dataset.hpp"
#include "core/report.hpp"
#include "faultsim/fleet.hpp"
#include "scratch_path.hpp"
#include "serve/daemon.hpp"
#include "serve/fleet_dataset.hpp"
#include "stream/checkpoint.hpp"
#include "stream/monitor.hpp"
#include "util/binio.hpp"
#include "util/file_io.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace astra::stream {
namespace {

std::uint64_t ChaosSeed() {
  if (const char* env = std::getenv("ASTRA_CHAOS_SEED")) {
    if (const auto parsed = ParseUint64(env)) return *parsed;
  }
  return 1;
}

constexpr int kMonitorMutants = 240;
constexpr int kTreeMutants = 60;

// One mutation of `payload`, drawn from `rng`.
std::string Mutate(std::string payload, Rng& rng) {
  const std::uint64_t words = payload.size() / 8;
  const std::uint64_t first = rng.UniformInt(words);
  const std::uint64_t count = std::min<std::uint64_t>(1 + rng.UniformInt(4), words - first);
  switch (rng.UniformInt(4)) {
    case 0: {
      const std::uint64_t at = rng.UniformInt(payload.size());
      payload[at] = static_cast<char>(payload[at] ^ (1 + rng.UniformInt(255)));
      break;
    }
    case 1:
      payload.erase(8 * first, 8 * count);
      break;
    case 2: {
      const std::string range = payload.substr(8 * first, 8 * count);
      payload.insert(8 * first, range);
      break;
    }
    default: {
      binio::Reader reader(std::string_view(payload).substr(8 * first, 8));
      const std::uint64_t word = reader.GetU64();
      std::string bumped;
      binio::Writer writer(bumped);
      writer.PutU64(rng.Bernoulli(0.5) ? word + 1 : word - 1);
      payload.replace(8 * first, 8, bumped);
      break;
    }
  }
  return payload;
}

// A CRC-valid envelope at the current version (both checkpoint kinds are at
// kCheckpointVersion).
std::string Envelope(std::string_view magic, const std::string& payload) {
  std::string envelope(magic);
  binio::Writer writer(envelope);
  writer.PutU32(kCheckpointVersion);
  writer.PutU64(payload.size());
  writer.PutU32(binio::Crc32(payload));
  return envelope + payload;
}

std::string SnapshotOf(const StreamMonitor& monitor) {
  std::string bytes;
  binio::Writer writer(bytes);
  monitor.Snapshot(writer);
  return bytes;
}

// The watch CLI's final render, whatever the restored state holds.
std::string Render(const StreamMonitor& monitor) {
  const logs::IngestPolicy policy;
  std::ostringstream out;
  core::RenderIngestReport(out, policy, monitor.MemoryReport(),
                           monitor.HetMissing() ? nullptr : &monitor.HetReport());
  if (monitor.Delivered() == 0) {
    core::RenderEmptyDatasetReport(out, monitor.Quality());
  } else {
    core::RenderAnalysisReport(out, monitor.Artifacts());
  }
  return out.str();
}

std::uint64_t Generation(std::string_view payload) {
  binio::Reader reader(payload.substr(0, 8));
  return reader.GetU64();
}

class CheckpointFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestScratchPath("astra_checkpoint_fuzz_test_");
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    // The campaign CheckpointTest uses: 24 nodes, seed 5.
    faultsim::CampaignConfig config;
    config.SeedFrom(5);
    config.node_count = 24;
    campaign_ = faultsim::FleetSimulator(config).Run();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  faultsim::CampaignResult campaign_;
};

TEST_F(CheckpointFuzzTest, MonitorMutantsAreRefusedOrReSaveByteIdentical) {
  const auto paths = core::DatasetPaths::InDirectory(dir_);
  ASSERT_TRUE(core::WriteFailureData(paths, campaign_));
  // What `watch --checkpoint` saves: the state after a poll, before Finish.
  StreamMonitor source(paths, MonitorConfig{});
  ASSERT_EQ(source.Poll(), MonitorStatus::kAdvanced);
  const std::string payload = SnapshotOf(source);
  const std::string fresh = SnapshotOf(StreamMonitor(paths, MonitorConfig{}));

  Rng rng(ChaosSeed());
  const std::string mutant_path = dir_ + "/mutant.ckpt";
  const std::string resaved_path = dir_ + "/resaved.ckpt";
  int refused = 0;
  int accepted = 0;
  for (int i = 0; i < kMonitorMutants; ++i) {
    SCOPED_TRACE("mutant " + std::to_string(i));
    const std::string envelope = Envelope(kCheckpointMagic, Mutate(payload, rng));
    ASSERT_TRUE(WriteFileBytes(mutant_path, envelope));
    StreamMonitor monitor(paths, MonitorConfig{});
    const CheckpointStatus status = RestoreMonitorCheckpoint(monitor, mutant_path);
    if (status != CheckpointStatus::kOk) {
      ++refused;
      EXPECT_EQ(status, CheckpointStatus::kBadPayload);
      EXPECT_EQ(SnapshotOf(monitor), fresh);
      continue;
    }
    ++accepted;
    ASSERT_EQ(SaveMonitorCheckpoint(monitor, resaved_path), CheckpointStatus::kOk);
    EXPECT_EQ(ReadFileBytes(resaved_path), envelope);
    EXPECT_FALSE(Render(monitor).empty());
  }
  // Both outcomes occur, so the sweep reaches the decoders and the rule.
  EXPECT_GT(refused, 0);
  EXPECT_GT(accepted, 0);
}

TEST_F(CheckpointFuzzTest, TreeMutantsAreRefusedOrReSaveByteIdentical) {
  serve::ServeOptions options;
  options.root = dir_ + "/fleet";
  options.topology = serve::ServeTopology{2, 3};
  options.checkpoint_dir = dir_ + "/ckp";
  const std::string path = options.checkpoint_dir + "/manifest.ckp";
  ASSERT_TRUE(serve::WriteFleetDataset(campaign_, options.root, options.topology));
  std::string payload;
  {
    serve::ServeDaemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.Init(&error)) << error;
    daemon.PollAll();
    ASSERT_TRUE(daemon.SaveCheckpoint());
    const auto saved = ReadFileBytes(path);
    ASSERT_TRUE(saved.has_value());
    payload = saved->substr(24);
  }

  Rng rng(ChaosSeed());
  int refused = 0;
  int accepted = 0;
  for (int i = 0; i < kTreeMutants; ++i) {
    SCOPED_TRACE("mutant " + std::to_string(i));
    const std::string mutant = Mutate(payload, rng);
    ASSERT_TRUE(WriteFileBytes(path, Envelope("ASTRASRV", mutant)));
    serve::ServeDaemon daemon(options);
    std::string error;
    if (!daemon.Init(&error)) {
      ++refused;
      continue;
    }
    ++accepted;
    ASSERT_TRUE(daemon.SaveCheckpoint());
    // Re-saved, only the generation (the payload's first u64) moves on.
    const auto resaved = ReadFileBytes(path);
    ASSERT_TRUE(resaved.has_value());
    const std::string_view resaved_payload = std::string_view(*resaved).substr(24);
    EXPECT_EQ(resaved_payload.substr(8), std::string_view(mutant).substr(8));
    EXPECT_EQ(Generation(resaved_payload), Generation(mutant) + 1);
    EXPECT_FALSE(daemon.FleetReport().empty());
  }
  EXPECT_GT(refused, 0);
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace astra::stream
