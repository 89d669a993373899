// ServeDaemon end to end in-process: init validation, drain parity against
// the one-stream oracle, report routing and bounds, stats, the HTTP handler
// surface, live serving to quiescence, mid-stream parity of the cached node
// fragments (refreshed only when a node's report stamp moves), concurrent
// renders, and checkpoint/restore across daemon instances, including every
// way a damaged checkpoint is refused.
#include "serve/daemon.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "faultsim/fleet.hpp"
#include "scratch_path.hpp"
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

// A larger campaign for the staged-fleet tests, whose every node on the
// 2x2 topology holds enough records to append in steps.
const faultsim::CampaignResult& StagedCampaign() {
  static const faultsim::CampaignResult result = [] {
    faultsim::CampaignConfig config;
    config.seed = 20220622;
    config.node_count = 36;
    config.SeedFrom(config.seed);
    return faultsim::FleetSimulator(config).Run();
  }();
  return result;
}

class ServeDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = TestScratchPath("astra_serve_daemon_test_");
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
  [[nodiscard]] std::string OracleReport(
      const ServeOptions& options,
      const faultsim::CampaignResult& campaign = Campaign()) {
    const std::string dir = base_ + "/combined";
    EXPECT_TRUE(WriteCombinedDataset(campaign, dir));
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

// The count /stats reports under `key`.
std::uint64_t StatsCount(const std::string& stats, const std::string& key) {
  const std::string field = "\"" + key + "\": ";
  const auto at = stats.find(field);
  EXPECT_NE(at, std::string::npos) << stats;
  if (at == std::string::npos) return 0;
  return std::stoull(stats.substr(at + field.size()));
}

void AppendText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::app | std::ios::binary);
  out << text;
}

// A campaign's fleet, with each node's memory_errors lines held back
// and appended under test control; het_events is complete from the start.
// Only the test thread appends.
class StagedFleet {
 public:
  StagedFleet(const std::string& base, const ServeTopology& topology)
      : root_(base + "/staged") {
    const std::string source = base + "/staged_source";
    EXPECT_TRUE(WriteFleetDataset(StagedCampaign(), source, topology));
    for (int node = 0; node < topology.NodeCount(); ++node) {
      const auto from = core::DatasetPaths::InDirectory(NodeDir(source, node));
      const auto to = core::DatasetPaths::InDirectory(NodeDir(root_, node));
      std::filesystem::create_directories(NodeDir(root_, node));
      std::filesystem::copy_file(from.het_events, to.het_events);
      std::istringstream text(ReadFileBytes(from.memory_errors).value_or(""));
      std::vector<std::string> lines;
      for (std::string line; std::getline(text, line);) lines.push_back(line + "\n");
      if (lines.empty()) {
        ADD_FAILURE() << "node " << node << " has no header line";
        lines.emplace_back("\n");
      }
      headers_.push_back(lines.front());
      lines.erase(lines.begin());
      pending_.push_back(std::move(lines));
      next_.push_back(0);
      EXPECT_TRUE(WriteFileBytes(to.memory_errors, headers_.back()));
    }
  }

  [[nodiscard]] const std::string& Root() const { return root_; }
  // The node with the most held-back lines.
  [[nodiscard]] int Busiest() const {
    std::size_t most = 0;
    for (std::size_t node = 1; node < pending_.size(); ++node) {
      if (pending_[node].size() > pending_[most].size()) most = node;
    }
    return static_cast<int>(most);
  }
  [[nodiscard]] std::string MemoryLog(int node) const {
    return core::DatasetPaths::InDirectory(NodeDir(root_, node)).memory_errors;
  }

  // Append node `node`'s next `count` held-back lines (fewer when it runs
  // out).
  void Append(int node, std::size_t count) { AppendText(MemoryLog(node), Take(node, count)); }
  void AppendRest() {
    for (int node = 0; node < static_cast<int>(pending_.size()); ++node) {
      Append(node, pending_[static_cast<std::size_t>(node)].size());
    }
  }
  // Replace the node's log with a fresh header and its next `count` lines,
  // shorter than what was read: the tail readers restart at byte 0.
  void Rotate(int node, std::size_t count) {
    EXPECT_TRUE(WriteFileBytes(MemoryLog(node),
                               headers_[static_cast<std::size_t>(node)] +
                                   Take(node, count)));
  }

 private:
  std::string Take(int node, std::size_t count) {
    const auto& lines = pending_[static_cast<std::size_t>(node)];
    std::size_t& next = next_[static_cast<std::size_t>(node)];
    std::string text;
    for (; count > 0 && next < lines.size(); --count) text += lines[next++];
    return text;
  }

  std::string root_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> pending_;
  std::vector<std::size_t> next_;
};

// Per-node monitors over the same files as a daemon, stepped in lock step
// with it: the reports a daemon serves must equal RenderMergedReport over
// the monitors of the same nodes.
class LockStepMonitors {
 public:
  explicit LockStepMonitors(const ServeOptions& options) : options_(options) {
    for (int node = 0; node < options.topology.NodeCount(); ++node) {
      monitors_.push_back(std::make_unique<stream::StreamMonitor>(
          core::DatasetPaths::InDirectory(NodeDir(options.root, node)),
          options.monitor));
    }
  }

  void PollAll() {
    for (auto& monitor : monitors_) (void)monitor->Poll();
  }
  void FinishAll() {
    for (auto& monitor : monitors_) (void)monitor->Finish();
  }

  [[nodiscard]] std::string Report(int begin, int end) const {
    std::vector<NodeSample> samples;
    for (int node = begin; node < end; ++node) {
      samples.push_back(SampleMonitor(*monitors_[static_cast<std::size_t>(node)]));
    }
    core::EngineSetConfig engine_config;
    engine_config.predictor = options_.monitor.predictor;
    const auto view = MergeSamples(engine_config, options_.monitor.alerts, samples);
    EXPECT_TRUE(view.has_value());
    std::ostringstream out;
    if (view) RenderMergedReport(out, options_.monitor.policy, *view);
    return out.str();
  }
  [[nodiscard]] std::string RackReport(int rack) const {
    const int begin = options_.topology.RackBegin(rack);
    return Report(begin, begin + options_.topology.nodes_per_rack);
  }

 private:
  ServeOptions options_;
  std::vector<std::unique_ptr<stream::StreamMonitor>> monitors_;
};

// Every report the daemon serves — the fleet, each rack, nodes 0 and 3 —
// equals the lock-step oracle's.  The fleet report is fetched first.
void ExpectReportsMatch(ServeDaemon& daemon, const LockStepMonitors& oracle,
                        const ServeTopology& topology, const std::string& step) {
  SCOPED_TRACE(step);
  EXPECT_EQ(daemon.FleetReport(), oracle.Report(0, topology.NodeCount()));
  for (int rack = 0; rack < topology.racks; ++rack) {
    EXPECT_EQ(daemon.RackReport(rack).value_or(""), oracle.RackReport(rack))
        << "rack " << rack;
  }
  for (const int node : {0, 3}) {
    EXPECT_EQ(daemon.NodeReport(node).value_or(""), oracle.Report(node, node + 1))
        << "node " << node;
  }
}

// Node fragments are cached per slot and rebuilt only when the node's
// report stamp moved: after every poll — records appended to one node, to
// several, to none, a rotation — and after the drain, every served report
// equals the reports over lock-step monitors, and a poll that advances one
// node costs one fragment rebuild.
TEST_F(ServeDaemonTest, MidStreamReportsMatchLockStepMonitors) {
  StagedFleet fleet(base_, topology_);
  ServeOptions options = BaseOptions();
  options.root = fleet.Root();
  ServeDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Init(&error)) << error;
  LockStepMonitors oracle(options);
  const auto refreshes = [&daemon] {
    return StatsCount(daemon.StatsJson(), "fragment_refreshes");
  };
  const auto poll = [&] {
    daemon.PollAll();
    oracle.PollAll();
  };

  poll();
  ExpectReportsMatch(daemon, oracle, topology_, "headers only");

  const int busy = fleet.Busiest();
  fleet.Append(busy, 30);
  poll();
  std::uint64_t before = refreshes();
  EXPECT_EQ(daemon.FleetReport(), oracle.Report(0, topology_.NodeCount()));
  EXPECT_EQ(refreshes(), before + 1) << "one node advanced";
  before = refreshes();
  EXPECT_EQ(daemon.RackReport(0).value_or(""), oracle.RackReport(0));
  EXPECT_EQ(refreshes(), before) << "the rack's fragments are current";
  ExpectReportsMatch(daemon, oracle, topology_, "one node");

  for (int node = 0; node < topology_.NodeCount(); ++node) {
    if (node != busy) fleet.Append(node, 12);
  }
  poll();
  ExpectReportsMatch(daemon, oracle, topology_, "several nodes");

  poll();
  before = refreshes();
  ExpectReportsMatch(daemon, oracle, topology_, "no node");
  EXPECT_EQ(refreshes(), before) << "nothing moved";

  fleet.Rotate(busy, 5);
  poll();
  ExpectReportsMatch(daemon, oracle, topology_, "rotation");

  fleet.AppendRest();
  poll();
  ExpectReportsMatch(daemon, oracle, topology_, "the rest");

  EXPECT_EQ(daemon.Drain(), 0u);
  oracle.FinishAll();
  ExpectReportsMatch(daemon, oracle, topology_, "drained");
}

// Two HTTP clients render the fleet and a rack over and over while the
// pollers consume appended records; once drained, both reports equal the
// oracles'.
TEST_F(ServeDaemonTest, ConcurrentRendersWhilePollersRunSettleOnTheOracle) {
  StagedFleet fleet(base_, topology_);
  ServeOptions options = BaseOptions();
  options.root = fleet.Root();
  options.poll_ms = 1;
  options.merge_ms = 5;
  options.pollers = 2;
  ServeDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Init(&error)) << error;
  HttpServer server;
  ASSERT_TRUE(server.Start(MakeDaemonHandler(daemon), 0, 2));
  ASSERT_TRUE(daemon.StartServing());

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  const auto fetch_loop = [&](const std::string& path) {
    while (!done.load()) {
      const auto result = HttpFetch("127.0.0.1", server.Port(), "GET", path);
      if (!result || result->status != 200 ||
          result->body.rfind("== ingest", 0) != 0) {
        failures.fetch_add(1);
      }
    }
  };
  std::thread fleet_client(fetch_loop, "/fleet/report");
  std::thread rack_client(fetch_loop, "/rack/1/report");
  for (int round = 0; round < 8; ++round) {
    for (int node = 0; node < topology_.NodeCount(); ++node) {
      fleet.Append(node, 25);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  fleet.AppendRest();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  done = true;
  fleet_client.join();
  rack_client.join();
  daemon.StopServing();
  EXPECT_EQ(failures.load(), 0);

  EXPECT_EQ(daemon.Drain(), 0u);
  LockStepMonitors oracle(options);
  oracle.FinishAll();
  const auto get = [&](const std::string& path) {
    return HttpFetch("127.0.0.1", server.Port(), "GET", path)
        .value_or(HttpResult{})
        .body;
  };
  EXPECT_EQ(get("/fleet/report"), OracleReport(options, StagedCampaign()));
  EXPECT_EQ(get("/rack/1/report"), oracle.RackReport(1));
  server.Stop();
}

// A poll whose malformed lines push a strict node over its budget returns
// kRejected, not kAdvanced; the cached fleet report must still move to
// what a fresh daemon over the same files serves: the accounting alone.
TEST_F(ServeDaemonTest, CachedReportFollowsAStrictBudgetCrossing) {
  ServeOptions options = BaseOptions();
  options.root = base_ + "/strict";
  options.topology = ServeTopology{1, 1};
  options.monitor.policy.mode = logs::IngestPolicy::Mode::kStrict;
  faultsim::CampaignResult three;
  three.memory_errors.assign(Campaign().memory_errors.begin(),
                             Campaign().memory_errors.begin() + 3);
  ASSERT_TRUE(WriteFleetDataset(three, options.root, options.topology));

  ServeDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Init(&error)) << error;
  daemon.PollAll();
  const std::string before = daemon.FleetReport();
  ASSERT_NE(before.find("== volume"), std::string::npos) << before;

  std::string garbage;
  for (int i = 0; i < 100; ++i) garbage += "not a record\n";
  AppendText(core::DatasetPaths::InDirectory(NodeDir(options.root, 0)).memory_errors,
             garbage);
  daemon.PollAll();

  ServeDaemon fresh(options);
  ASSERT_TRUE(fresh.Init(&error)) << error;
  fresh.PollAll();
  const std::string want = fresh.FleetReport();
  EXPECT_EQ(want.find("== volume"), std::string::npos) << want;
  EXPECT_EQ(daemon.FleetReport(), want);
}

// First sight of a memory log that holds no complete line returns kIdle,
// yet it turns the missing het stream into a reported degradation; the
// cached fleet report must follow.
TEST_F(ServeDaemonTest, CachedReportFollowsFirstSightOfAFile) {
  ServeOptions options = BaseOptions();
  options.root = base_ + "/late";
  options.topology = ServeTopology{1, 1};
  const std::string dir = NodeDir(options.root, 0);
  std::filesystem::create_directories(dir);

  ServeDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Init(&error)) << error;
  daemon.PollAll();
  const std::string before = daemon.FleetReport();
  ASSERT_EQ(before.find("MISSING"), std::string::npos) << before;

  ASSERT_TRUE(WriteFileBytes(core::DatasetPaths::InDirectory(dir).memory_errors,
                             "2019-"));  // a torn first line, no newline
  daemon.PollAll();

  ServeDaemon fresh(options);
  ASSERT_TRUE(fresh.Init(&error)) << error;
  fresh.PollAll();
  const std::string want = fresh.FleetReport();
  EXPECT_NE(want.find("het_events: MISSING"), std::string::npos) << want;
  EXPECT_EQ(daemon.FleetReport(), want);
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
                base_ + "/ckp_missing/manifest.ckp", "ASTRASRV", 4,
                [&decoded](binio::Reader&) { return decoded = true; },
                [](binio::Writer&) {}, RetryPolicy::None()),
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

// A node state no Snapshot writes — here the memory reader's
// first-line-done flag stored as 2, which decodes as true — is refused by
// the checkpoint rule rather than silently re-saved as 1.
TEST_F(TreeCheckpointTest, NonCanonicalNodeStateIsRejected) {
  EXPECT_EQ(InitErrorAfter([](std::string& bytes) {
              std::string payload = bytes.substr(24);
              // generation, topology, then node 0's reader cursor offset.
              payload[8 + 8 + 8] = 2;
              bytes = TreeEnvelope(5, payload);
            }),
            Rejected("malformed monitor state"));
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

  // Versions 2 to 4, CRC-valid: their node snapshots carried the
  // positional engine section, then the coalescer's monthly bins and row
  // sets, then each reader's full-history dedup hashes.  The version check
  // refuses the file before any node decodes, so it never surfaces as
  // malformed monitor state.
  for (const std::uint32_t version : {2u, 3u, 4u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    EXPECT_EQ(InitErrorAfter([&](std::string& bytes) {
                bytes = TreeEnvelope(version, bytes.substr(24));
              }),
              Rejected("incompatible checkpoint version"));
  }
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
              bytes = TreeEnvelope(5, short_payload);
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
