// ServeDaemon end to end in-process: init validation, drain parity against
// the one-stream oracle, report routing and bounds, stats, the HTTP handler
// surface, live serving to quiescence, and checkpoint/restore across
// daemon instances, including every way a damaged checkpoint is refused.
#include "serve/daemon.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "faultsim/fleet.hpp"
#include "serve/fleet_dataset.hpp"
#include "stream/checkpoint.hpp"
#include "util/binio.hpp"
#include "util/file_io.hpp"
#include "util/io_faults.hpp"

namespace astra::serve {
namespace {

// A small deterministic campaign shared by the suite: 8 simulated node ids
// folded onto a 2x2 serving topology.
const faultsim::CampaignResult& Campaign() {
  static const faultsim::CampaignResult result = [] {
    faultsim::CampaignConfig config;
    config.seed = 20190914;
    config.node_count = 8;
    config.SeedFrom(config.seed);
    return faultsim::FleetSimulator(config).Run();
  }();
  return result;
}

class ServeDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "astra_serve_daemon_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
    topology_ = ServeTopology{2, 2};
    root_ = base_ + "/fleet";
    ASSERT_TRUE(WriteFleetDataset(Campaign(), root_, topology_));
  }
  void TearDown() override { std::filesystem::remove_all(base_); }

  [[nodiscard]] ServeOptions BaseOptions() const {
    ServeOptions options;
    options.root = root_;
    options.topology = topology_;
    options.monitor.alerts.window_seconds = 3600;
    options.monitor.alerts.fleet_ce_threshold = 4;
    options.retry = RetryPolicy::None();
    return options;
  }

  // The parity oracle: one monitor over the concatenated logs, rendered
  // through the same merge-tree path the daemon uses.
  [[nodiscard]] std::string OracleReport(const ServeOptions& options) {
    const std::string dir = base_ + "/combined";
    EXPECT_TRUE(WriteCombinedDataset(Campaign(), dir));
    stream::StreamMonitor monitor(core::DatasetPaths::InDirectory(dir),
                                  options.monitor);
    EXPECT_NE(monitor.Finish(), stream::MonitorStatus::kMissingPrimary);
    std::vector<NodeSample> sample;
    sample.push_back(SampleMonitor(monitor));
    core::EngineSetConfig engine_config;
    engine_config.predictor = options.monitor.predictor;
    const auto view =
        MergeSamples(engine_config, options.monitor.alerts, sample);
    EXPECT_TRUE(view.has_value());
    std::ostringstream out;
    if (view) RenderMergedReport(out, options.monitor.policy, *view);
    return out.str();
  }

  std::string base_;
  std::string root_;
  ServeTopology topology_;
};

TEST_F(ServeDaemonTest, InitRejectsInvalidOptionsWithADiagnostic) {
  ServeOptions bad_topology = BaseOptions();
  bad_topology.topology = ServeTopology{0, 2};
  std::string error;
  EXPECT_FALSE(ServeDaemon(bad_topology).Init(&error));
  EXPECT_EQ(error, "invalid topology");

  ServeOptions no_root = BaseOptions();
  no_root.root.clear();
  EXPECT_FALSE(ServeDaemon(no_root).Init(&error));
  EXPECT_EQ(error, "serve root directory required");
}

TEST_F(ServeDaemonTest, DrainedFleetReportMatchesTheOneStreamOracle) {
  ServeDaemon daemon(BaseOptions());
  std::string error;
  ASSERT_TRUE(daemon.Init(&error)) << error;
  EXPECT_FALSE(daemon.Ready());
  EXPECT_EQ(daemon.Drain(), 0u);  // every node dir exists and is readable
  EXPECT_TRUE(daemon.Ready());
  EXPECT_TRUE(daemon.Quiesced());
  EXPECT_EQ(daemon.FleetReport(), OracleReport(BaseOptions()));
}

TEST_F(ServeDaemonTest, RackAndNodeReportsAreBoundsChecked) {
  ServeDaemon daemon(BaseOptions());
  std::string error;
  ASSERT_TRUE(daemon.Init(&error)) << error;
  daemon.PollAll();

  EXPECT_TRUE(daemon.RackReport(0).has_value());
  EXPECT_TRUE(daemon.RackReport(1).has_value());
  EXPECT_FALSE(daemon.RackReport(2).has_value());
  EXPECT_FALSE(daemon.RackReport(-1).has_value());
  EXPECT_TRUE(daemon.NodeReport(3).has_value());
  EXPECT_FALSE(daemon.NodeReport(4).has_value());
  EXPECT_FALSE(daemon.NodeReport(-1).has_value());
}

TEST_F(ServeDaemonTest, StatsJsonTracksReadinessAndDelivery) {
  ServeDaemon daemon(BaseOptions());
  std::string error;
  ASSERT_TRUE(daemon.Init(&error)) << error;

  std::string stats = daemon.StatsJson();
  EXPECT_NE(stats.find("\"nodes\": 4"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"racks\": 2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"ready\": false"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"quiesced\": false"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"delivered\": 0"), std::string::npos) << stats;

  EXPECT_EQ(daemon.Drain(), 0u);
  stats = daemon.StatsJson();
  EXPECT_NE(stats.find("\"ready\": true"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"quiesced\": true"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"missing_primary\": 0"), std::string::npos) << stats;
  EXPECT_EQ(stats.find("\"delivered\": 0"), std::string::npos) << stats;
  EXPECT_EQ(stats.back(), '\n');
}

TEST_F(ServeDaemonTest, HandlerRoutesTheWholeHttpSurface) {
  ServeDaemon daemon(BaseOptions());
  std::string error;
  ASSERT_TRUE(daemon.Init(&error)) << error;
  HttpServer server;
  ASSERT_TRUE(server.Start(MakeDaemonHandler(daemon)));
  const auto get = [&](const std::string& path) {
    auto result = HttpFetch("127.0.0.1", server.Port(), "GET", path);
    EXPECT_TRUE(result.has_value()) << path;
    return result.value_or(HttpResult{});
  };

  // Not ready yet: health says starting, with the conventional 503.
  auto health = get("/healthz");
  EXPECT_EQ(health.status, 503);
  EXPECT_EQ(health.body, "starting\n");

  daemon.Drain();
  health = get("/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  EXPECT_EQ(get("/fleet/report").body, daemon.FleetReport());
  EXPECT_EQ(get("/rack/1/report").body, daemon.RackReport(1).value());
  EXPECT_EQ(get("/node/2/report").body, daemon.NodeReport(2).value());

  auto missing_rack = get("/rack/9/report");
  EXPECT_EQ(missing_rack.status, 404);
  EXPECT_EQ(missing_rack.body, "no such rack\n");
  EXPECT_EQ(get("/node/99/report").status, 404);
  EXPECT_EQ(get("/rack/x/report").status, 404);  // non-numeric id
  auto unknown = get("/nonsense");
  EXPECT_EQ(unknown.status, 404);
  EXPECT_EQ(unknown.body, "unknown endpoint\n");

  EXPECT_NE(get("/alerts").body.find("\"published\":"), std::string::npos);
  EXPECT_NE(get("/stats").body.find("\"data_generation\":"),
            std::string::npos);

  const auto post = HttpFetch("127.0.0.1", server.Port(), "POST", "/healthz");
  ASSERT_TRUE(post.has_value());
  EXPECT_EQ(post->status, 405);

  server.Stop();
}

TEST_F(ServeDaemonTest, LiveServingQuiescesToTheBatchReport) {
  ServeOptions options = BaseOptions();
  options.poll_ms = 10;
  options.merge_ms = 20;
  options.quiesce_ms = 60;
  options.pollers = 2;
  options.checkpoint_dir = base_ + "/ckp";
  options.checkpoint_every_merges = 1;

  ServeDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Init(&error)) << error;
  ASSERT_TRUE(daemon.StartServing());
  // Bounded wait: once every stream has idled past quiesce_ms the merger
  // drains the fleet and reports turn final.
  for (int i = 0; i < 500 && !daemon.Quiesced(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(daemon.Quiesced());
  EXPECT_EQ(daemon.FleetReport(), OracleReport(options));
  daemon.StopServing();
  daemon.StopServing();  // idempotent

  // The merge cadence checkpointed at least once: the manifest exists and a
  // fresh daemon restores from it to the identical final report.
  ASSERT_TRUE(
      std::filesystem::exists(options.checkpoint_dir + "/manifest.ckp"));
  ServeDaemon restored(options);
  ASSERT_TRUE(restored.Init(&error)) << error;
  EXPECT_EQ(restored.Drain(), 0u);
  EXPECT_EQ(restored.FleetReport(), OracleReport(options));
}

TEST_F(ServeDaemonTest, CheckpointRoundTripsAcrossDaemonInstances) {
  ServeOptions options = BaseOptions();
  options.checkpoint_dir = base_ + "/ckp";

  ServeDaemon first(options);
  std::string error;
  ASSERT_TRUE(first.Init(&error)) << error;
  EXPECT_EQ(first.Drain(), 0u);
  const std::string report = first.FleetReport();
  ASSERT_TRUE(first.SaveCheckpoint());

  const std::string generation = "\"checkpoint_generation\": 1,";
  EXPECT_NE(first.StatsJson().find(generation), std::string::npos);

  // The restored daemon reproduces the report WITHOUT the node logs: the
  // drained cursors make Finish a no-op that never reopens the files.
  std::filesystem::remove_all(root_);
  ServeDaemon second(options);
  ASSERT_TRUE(second.Init(&error)) << error;
  EXPECT_NE(second.StatsJson().find(generation), std::string::npos)
      << second.StatsJson();
  EXPECT_EQ(second.Drain(), 0u);
  EXPECT_EQ(second.FleetReport(), report);
  // One save, one file: no per-node files and no leftover tmp.
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.checkpoint_dir)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"manifest.ckp"});
}

TEST_F(ServeDaemonTest, TransientStatFailuresDoNotHideTheCheckpoint) {
  ServeOptions options = BaseOptions();
  options.checkpoint_dir = base_ + "/ckp";
  options.retry.max_attempts = 4;  // unslept: retry_sleep stays null
  std::string error;
  std::string report;
  {
    ServeDaemon first(options);
    ASSERT_TRUE(first.Init(&error)) << error;
    EXPECT_EQ(first.Drain(), 0u);
    report = first.FleetReport();
    ASSERT_TRUE(first.SaveCheckpoint());
  }
  std::filesystem::remove_all(root_);  // only the checkpoint can answer now

  // The transient class at its default streak, aimed at the checkpoint: a
  // single stat that fails must not read as "no checkpoint yet".
  io::FaultConfig config;
  config.stat_fail = 1.0;
  config.max_consecutive = 2;
  config.path_filter = "manifest.ckp";
  io::FaultyIo faulty(config);
  io::ScopedIo scope(faulty);
  ServeDaemon second(options);
  ASSERT_TRUE(second.Init(&error)) << error;
  EXPECT_GT(faulty.Stats().Count(io::Fault::kStatFail), 0u);
  EXPECT_NE(second.StatsJson().find("\"checkpoint_generation\": 1,"),
            std::string::npos);
  EXPECT_EQ(second.Drain(), 0u);
  EXPECT_EQ(second.FleetReport(), report);
}

// The envelope of a tree checkpoint in the given layout, CRC-valid.
std::string TreeEnvelope(std::uint32_t version, const std::string& payload) {
  std::string envelope = "ASTRASRV";
  binio::Writer writer(envelope);
  writer.PutU32(version);
  writer.PutU64(payload.size());
  writer.PutU32(binio::Crc32(payload));
  return envelope + payload;
}

// The whole-tree checkpoint, <checkpoint_dir>/manifest.ckp: a 2x3 tree saved
// once, its exact round trip, and every way Init refuses a damaged file with
// the matching status message.
class TreeCheckpointTest : public ServeDaemonTest {
 protected:
  void SetUp() override {
    ServeDaemonTest::SetUp();
    if (HasFatalFailure()) return;
    options_ = BaseOptions();
    options_.topology = ServeTopology{2, 3};
    options_.root = base_ + "/fleet_2x3";
    options_.checkpoint_dir = base_ + "/ckp";
    path_ = options_.checkpoint_dir + "/manifest.ckp";
    ASSERT_TRUE(
        WriteFleetDataset(Campaign(), options_.root, options_.topology));
    ServeDaemon daemon(options_);
    std::string error;
    ASSERT_TRUE(daemon.Init(&error)) << error;
    daemon.PollAll();
    ASSERT_TRUE(daemon.SaveCheckpoint());
    const auto saved = ReadFileBytes(path_);
    ASSERT_TRUE(saved.has_value());
    saved_ = *saved;
  }

  // Replace the checkpoint with the saved bytes after `damage`, and return
  // the diagnostic of a fresh daemon's Init, which must fail.
  [[nodiscard]] std::string InitErrorAfter(
      const std::function<void(std::string&)>& damage) {
    std::string bytes = saved_;
    damage(bytes);
    EXPECT_TRUE(WriteFileBytes(path_, bytes));
    ServeDaemon daemon(options_);
    std::string error;
    EXPECT_FALSE(daemon.Init(&error));
    return error;
  }

  [[nodiscard]] std::string Rejected(std::string_view message) const {
    return "checkpoint manifest rejected (" + std::string(message) +
           "): " + path_;
  }

  ServeOptions options_;
  std::string path_;
  std::string saved_;
};

TEST_F(TreeCheckpointTest, ManifestRoundTripsExactly) {
  ServeDaemon restored(options_);
  std::string error;
  ASSERT_TRUE(restored.Init(&error)) << error;
  EXPECT_NE(restored.StatsJson().find("\"checkpoint_generation\": 1,"),
            std::string::npos);
  ASSERT_TRUE(restored.SaveCheckpoint());
  const auto resaved = ReadFileBytes(path_);
  ASSERT_TRUE(resaved.has_value());

  // Saved again, the file differs only in the generation (the first payload
  // u64, at offset 24) and the CRC over it: every node's state, the topology
  // and the envelope round-trip byte for byte.
  ASSERT_EQ(resaved->size(), saved_.size());
  EXPECT_EQ(resaved->substr(0, 20), saved_.substr(0, 20));
  EXPECT_EQ(resaved->substr(32), saved_.substr(32));
  binio::Reader before(std::string_view(saved_).substr(24, 8));
  binio::Reader after(std::string_view(*resaved).substr(24, 8));
  EXPECT_EQ(before.GetU64(), 1u);
  EXPECT_EQ(after.GetU64(), 2u);
}

TEST_F(TreeCheckpointTest, MissingManifestIsAnIoError) {
  // The shared reader reports a missing file as an I/O error and never
  // calls the decoder.
  bool decoded = false;
  EXPECT_EQ(stream::ReadCheckpointFile(
                base_ + "/ckp_missing/manifest.ckp", "ASTRASRV", 3,
                [&decoded](binio::Reader&) { return decoded = true; },
                RetryPolicy::None()),
            stream::CheckpointStatus::kIoError);
  EXPECT_FALSE(decoded);

  // A manifest that exists but cannot be opened is that error too, never a
  // fresh start over the saved state.
  io::FaultConfig config;
  config.open_fail = 1.0;
  config.max_consecutive = 0;  // persistent
  config.path_filter = "manifest.ckp";
  io::FaultyIo faulty(config);
  io::ScopedIo scope(faulty);
  ServeDaemon daemon(options_);
  std::string error;
  EXPECT_FALSE(daemon.Init(&error));
  EXPECT_EQ(error, Rejected("cannot read or write the file"));
}

TEST_F(TreeCheckpointTest, WrongMagicIsRejected) {
  EXPECT_EQ(InitErrorAfter([](std::string& bytes) { bytes[0] = 'X'; }),
            Rejected("not a checkpoint file"));
}

TEST_F(TreeCheckpointTest, UnknownVersionIsRejected) {
  // The format version is the u32 at offset 8, right after the magic.
  EXPECT_EQ(InitErrorAfter([](std::string& bytes) { bytes[8] = 99; }),
            Rejected("incompatible checkpoint version"));

  // Version 1 (the previous release), CRC-valid: the generation, the
  // topology and the names of one per-node checkpoint file each.
  std::string v1_payload;
  binio::Writer v1(v1_payload);
  v1.PutU64(1);
  v1.PutU32(2);
  v1.PutU32(3);
  v1.PutU64(6);
  for (int node = 0; node < 6; ++node) {
    v1.PutString(NodeDirName(node) + ".g1.ckp");
  }
  EXPECT_EQ(InitErrorAfter([&](std::string& bytes) {
              bytes = TreeEnvelope(1, v1_payload);
            }),
            Rejected("incompatible checkpoint version"));

  // Version 2, CRC-valid: its node snapshots carried the positional engine
  // section.  The version check refuses the file before any node decodes,
  // so it never surfaces as malformed monitor state.
  EXPECT_EQ(InitErrorAfter([&](std::string& bytes) {
              bytes = TreeEnvelope(2, bytes.substr(24));
            }),
            Rejected("incompatible checkpoint version"));
}

TEST_F(TreeCheckpointTest, TruncationAnywhereIsDetected) {
  const std::string truncated =
      Rejected("file shorter than its envelope declares");
  EXPECT_EQ(InitErrorAfter([](std::string& bytes) { bytes.resize(4); }),
            truncated);  // shorter than the magic
  EXPECT_EQ(InitErrorAfter([](std::string& bytes) { bytes.resize(20); }),
            truncated);  // header cut mid-field
  EXPECT_EQ(InitErrorAfter(
                [](std::string& bytes) { bytes.resize(bytes.size() - 3); }),
            truncated);  // payload shorter than declared
}

TEST_F(TreeCheckpointTest, PayloadCorruptionFailsTheChecksum) {
  // Offset 24 is the first payload byte; the CRC covers all of them.
  EXPECT_EQ(InitErrorAfter([](std::string& bytes) {
              bytes[30] = static_cast<char>(bytes[30] ^ 0x01);
            }),
            Rejected("payload checksum mismatch"));
}

TEST_F(TreeCheckpointTest, TrailingGarbageIsABadPayload) {
  EXPECT_EQ(InitErrorAfter([](std::string& bytes) { bytes += "extra"; }),
            Rejected("malformed monitor state"));
}

TEST_F(TreeCheckpointTest, FileCountMustMatchTheTopology) {
  // A well-formed payload for the 2x3 topology that stops one node short.
  std::string short_payload;
  binio::Writer writer(short_payload);
  writer.PutU64(1);
  writer.PutU32(2);
  writer.PutU32(3);
  for (int node = 0; node < 5; ++node) {
    stream::StreamMonitor monitor(
        core::DatasetPaths::InDirectory(NodeDir(options_.root, node)),
        options_.monitor);
    (void)monitor.Poll();
    monitor.Snapshot(writer);
  }
  EXPECT_EQ(InitErrorAfter([&](std::string& bytes) {
              bytes = TreeEnvelope(3, short_payload);
            }),
            Rejected("malformed monitor state"));
}

TEST_F(ServeDaemonTest, DamagedManifestFailsInitLoudly) {
  ServeOptions options = BaseOptions();
  options.checkpoint_dir = base_ + "/ckp";
  {
    ServeDaemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.Init(&error)) << error;
    daemon.PollAll();
    ASSERT_TRUE(daemon.SaveCheckpoint());
  }
  const std::string manifest = options.checkpoint_dir + "/manifest.ckp";
  auto bytes = ReadFileBytes(manifest);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[30] = static_cast<char>((*bytes)[30] ^ 0x01);  // payload bit flip
  ASSERT_TRUE(WriteFileBytes(manifest, *bytes));

  ServeDaemon damaged(options);
  std::string error;
  EXPECT_FALSE(damaged.Init(&error));
  EXPECT_NE(error.find("checkpoint manifest rejected"), std::string::npos)
      << error;

  // A topology that disagrees with a HEALTHY manifest is refused too.
  std::filesystem::remove(manifest);  // clear the damage, re-save fresh
  {
    ServeDaemon daemon(options);
    ASSERT_TRUE(daemon.Init(&error)) << error;
    daemon.PollAll();
    ASSERT_TRUE(daemon.SaveCheckpoint());
  }
  ServeOptions reshaped = options;
  reshaped.topology = ServeTopology{4, 1};
  ServeDaemon mismatched(reshaped);
  EXPECT_FALSE(mismatched.Init(&error));
  EXPECT_NE(error.find("does not match the serving topology"),
            std::string::npos)
      << error;
}

}  // namespace
}  // namespace astra::serve
