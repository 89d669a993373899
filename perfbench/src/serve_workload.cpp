// serve_live: the CLI default campaign as 432 node streams (6 racks x 72),
// laid out by the workload seed, served by ServeDaemon with 2 pollers and 2
// HTTP workers and every other option at the astra_serve CLI defaults.
//
//   catch-up  a fresh daemon starts on the whole backlog already on disk;
//             timed from StartServing to the first /healthz 200.
//   sweep     a fresh daemon's PollAll over the backlog on this thread:
//             the poll work of a catch-up.
//   report    (traced runs) the fleet report as a daemon renders it when
//             its cache is stale (sample every node, merge, finalize,
//             render), over per-node monitors the benchmark drains itself.
//   live      a second daemon tails empty streams while one producer thread
//             appends the records open-loop at kLiveSchedule's rate for the
//             run's --seconds; one connection fetches /fleet/report each
//             time DataGeneration() advances, so every answer is a fresh
//             render.  The rest of the records follow unpaced, then Drain().
//
// The warm-up catch-up daemon and the live daemon are drained, and their
// /fleet/report must equal `analyze` over the combined dataset (byte for
// byte apart from the repair-log defect noted at CompareWithOracle), and
// /stats `delivered` its count; so must every rendered report.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "host.hpp"
#include "open_loop.hpp"
#include "serve/daemon.hpp"
#include "serve/fleet_dataset.hpp"
#include "serve/http.hpp"
#include "serve/merge_tree.hpp"
#include "stats.hpp"
#include "util/retry.hpp"

namespace perfbench {
namespace {

using namespace astra;

constexpr int kServeStreams = kCampaignNodes;  // one stream per node
constexpr int kServePollers = 2;
constexpr int kHttpWorkers = 2;
constexpr int kMinQueries = 100;  // fewer fails the run instead of a p90
constexpr double kReadyTimeoutS = 60.0;
constexpr int kCatchUps = 2;  // timed catch-up daemons per run
constexpr int kSweeps = 3;    // timed one-thread backlog sweeps, before and after live
constexpr int kReports = 6;   // fleet report renders per traced run

serve::ServeTopology Topology() {
  serve::ServeTopology topology;
  topology.racks = kServeStreams / kNodesPerRack;
  topology.nodes_per_rack = kNodesPerRack;
  return topology;
}

// BuildServeOptions in src/tools/astra_serve_cli.cpp at its flag defaults,
// with --pollers=2.
serve::ServeOptions DaemonOptions(const std::string& root) {
  serve::ServeOptions options;
  options.root = root;
  options.topology = Topology();
  options.pollers = kServePollers;
  options.retry.max_attempts = 10;
  options.retry.base_delay_ms = 50;
  options.retry_sleep = ThreadSleeper();
  options.monitor.io_retry.max_attempts = 3;
  options.monitor.io_retry.base_delay_ms = 50;
  return options;
}

// serve_live's input: the CLI default campaign, one node per stream, laid
// out over the streams by the workload seed.  Heaviest first, each node
// joins the poller half of the streams that holds fewer records so far, so
// every layout splits the load the same way; the seed decides where in its
// half each node sits.
faultsim::CampaignResult ServeFleetInput(std::uint64_t seed, Tracer& tracer) {
  faultsim::CampaignResult result = SimulateCliCampaign(tracer);
  std::vector<std::size_t> per_node(kServeStreams, 0);
  for (const auto& record : result.memory_errors) ++per_node[record.node];
  std::vector<NodeId> ranked(kServeStreams);
  for (int node = 0; node < kServeStreams; ++node) ranked[node] = static_cast<NodeId>(node);
  std::stable_sort(ranked.begin(), ranked.end(), [&per_node](NodeId a, NodeId b) {
    return per_node[a] > per_node[b];
  });
  constexpr std::size_t kHalf = kServeStreams / kServePollers;
  std::vector<NodeId> halves[kServePollers];
  std::size_t load[kServePollers] = {0, 0};
  for (const NodeId node : ranked) {
    const int half = halves[1].size() < kHalf &&
                             (halves[0].size() == kHalf || load[1] < load[0])
                         ? 1
                         : 0;
    halves[half].push_back(node);
    load[half] += per_node[node];
  }
  std::mt19937_64 rng(seed);
  std::vector<NodeId> stream_of(kServeStreams);
  for (int half = 0; half < kServePollers; ++half) {
    std::shuffle(halves[half].begin(), halves[half].end(), rng);
    for (std::size_t i = 0; i < halves[half].size(); ++i) {
      stream_of[halves[half][i]] =
          static_cast<NodeId>(static_cast<std::size_t>(half) * kHalf + i);
    }
  }
  for (auto& record : result.memory_errors) record.node = stream_of[record.node];
  for (auto& record : result.het_records) record.node = stream_of[record.node];
  return result;
}

// The live fleet before any record arrives: every node directory with both
// headers and its (static) het stream, as bench_serve lays it out.
bool WriteLiveLayout(const faultsim::CampaignResult& result, const std::string& root) {
  std::vector<std::string> het(kServeStreams);
  for (const auto& record : result.het_records) {
    het[record.node % kServeStreams] += logs::FormatRecord(record) + "\n";
  }
  for (int node = 0; node < kServeStreams; ++node) {
    const std::string dir = serve::NodeDir(root, node);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const auto paths = core::DatasetPaths::InDirectory(dir);
    std::ofstream memory(paths.memory_errors, std::ios::binary);
    std::ofstream het_out(paths.het_events, std::ios::binary);
    memory << logs::MemoryErrorHeader() << '\n';
    het_out << logs::HetHeader() << '\n' << het[static_cast<std::size_t>(node)];
    if (ec || !memory || !het_out) return false;
  }
  return true;
}

std::optional<std::string> Get(const serve::HttpServer& server,
                               const std::string& path) {
  const auto result = serve::HttpFetch("127.0.0.1", server.Port(), "GET", path);
  if (!result || result->status != 200) return std::nullopt;
  return result->body;
}

// `delivered` of a /stats JSON body (0 when absent).
std::uint64_t DeliveredOf(const std::string& stats) {
  const std::string key = "\"delivered\": ";
  const auto at = stats.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(stats.c_str() + at + key.size(), nullptr, 10);
}

std::uint64_t StatsDelivered(const serve::HttpServer& server) {
  const auto stats = Get(server, "/stats");
  return stats ? DeliveredOf(*stats) : 0;
}

struct Oracle {
  std::string report;
  std::uint64_t delivered = 0;
};

// The "repair: dropped N exact duplicate record(s)" lines of a report, with
// every other line kept in order.
struct SplitReport {
  std::vector<std::string> lines;
  std::uint64_t dropped = 0;
  std::size_t repair_lines = 0;
};

SplitReport SplitRepairs(const std::string& report) {
  static const std::string kPrefix = "  repair: dropped ";
  static const std::string kSuffix = " exact duplicate record(s)";
  SplitReport split;
  std::istringstream in(report);
  for (std::string line; std::getline(in, line);) {
    if (line.compare(0, kPrefix.size(), kPrefix) == 0 && line.size() > kSuffix.size() &&
        line.compare(line.size() - kSuffix.size(), kSuffix.size(), kSuffix) == 0) {
      split.dropped += std::strtoull(line.c_str() + kPrefix.size(), nullptr, 10);
      ++split.repair_lines;
    } else {
      split.lines.push_back(line);
    }
  }
  return split;
}

// A served report must be what `analyze` prints.  Known defect: the merged
// ingest report lists one duplicate-repair line per node stream
// (IngestReport::Merge concatenates repair logs) where `analyze` prints one
// line for the whole dataset.  Those lines are compared by their summed
// counts, every other line byte for byte; `repair_lines` receives how many
// the served report carried.
std::string CompareWithOracle(const std::string& report, const Oracle& oracle,
                              const std::string& which,
                              std::size_t* repair_lines) {
  const SplitReport served = SplitRepairs(report);
  const SplitReport expected = SplitRepairs(oracle.report);
  if (served.lines != expected.lines || served.dropped != expected.dropped) {
    return which + ": report differs from analyze";
  }
  if (repair_lines != nullptr) *repair_lines = served.repair_lines;
  return {};
}

// The drained daemon's /fleet/report and /stats against the oracle.
std::string CheckDrained(const serve::HttpServer& server, const Oracle& oracle,
                         const std::string& which, std::size_t* repair_lines) {
  const auto report = Get(server, "/fleet/report");
  if (!report) return which + ": /fleet/report failed after Drain()";
  std::string error = CompareWithOracle(*report, oracle, which, repair_lines);
  if (error.empty() && StatsDelivered(server) != oracle.delivered) {
    error = which + ": /stats delivered differs from analyze";
  }
  return error;
}

struct CatchUp {
  Timing ready;  // StartServing to the first /healthz 200
  std::uint64_t delivered_at_ready = 0;
  std::string error;
};

// A fresh daemon over the backlog: StartServing until /healthz answers 200
// (every poller has swept the backlog once; the clock polls Ready() and
// then asks /healthz, so the first request is the first 200).  The
// delivered count at ready must be positive and within the oracle's; with
// `drain`, the daemon is then drained and its report checked against the
// oracle in full.
CatchUp RunCatchUp(const std::string& root, const Oracle& oracle, bool drain,
                   Tracer& tracer) {
  CatchUp run;
  serve::ServeDaemon daemon(DaemonOptions(root));
  std::string error;
  serve::HttpServer server;
  if (!daemon.Init(&error) ||
      !server.Start(serve::MakeDaemonHandler(daemon), 0, kHttpWorkers)) {
    run.error = "catch-up: daemon failed to start: " + error;
    return run;
  }
  {
    ScopedSpan span(tracer, "bench.catchup");
    run.ready = Timed([&] {
      const auto start = std::chrono::steady_clock::now();
      if (!daemon.StartServing()) {
        run.error = "catch-up: StartServing failed";
        return;
      }
      while (!daemon.Ready() && SecondsSince(start) <= kReadyTimeoutS) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (!Get(server, "/healthz")) run.error = "catch-up: /healthz never answered 200";
    });
  }
  if (run.error.empty()) {
    run.delivered_at_ready = StatsDelivered(server);
    if (run.delivered_at_ready == 0 || run.delivered_at_ready > oracle.delivered) {
      run.error = "catch-up: /stats delivered at ready out of range";
    }
  }
  daemon.StopServing();
  if (run.error.empty() && drain) {
    ScopedSpan span(tracer, "serve.drain");
    (void)daemon.Drain();
    run.error = CheckDrained(server, oracle, "catch-up", nullptr);
  }
  server.Stop();
  return run;
}

struct Sweep {
  Timing timing;
  std::string error;
};

// One synchronous sweep of the backlog on the calling thread
// (ServeDaemon::PollAll on a fresh daemon): the poll work a catch-up
// spreads over the pollers, without the merger thread that runs beside
// them for as long as the catch-up lasts.  The delivered count afterwards
// must be positive and within the oracle's.
Sweep RunSweep(const std::string& root, const Oracle& oracle, Tracer& tracer) {
  Sweep run;
  serve::ServeDaemon daemon(DaemonOptions(root));
  std::string error;
  if (!daemon.Init(&error)) {
    run.error = "sweep: daemon init failed: " + error;
    return run;
  }
  run.timing = Timed([&] {
    ScopedSpan span(tracer, "serve.poll_sweep");
    daemon.PollAll();
  });
  const std::uint64_t delivered = DeliveredOf(daemon.StatsJson());
  if (delivered == 0 || delivered > oracle.delivered) {
    run.error = "sweep: delivered out of range";
  }
  return run;
}

// Replays the data lines of a memory_errors.tsv onto the node streams under
// `root`, each to stream node % streams as WriteFleetDataset routes them:
// open-loop on schedule for `seconds`, then the remainder unpaced.
class Producer {
 public:
  Producer(std::string text, const std::string& root, int streams)
      : text_(std::move(text)) {
    std::size_t at = text_.find('\n');  // skip the header
    while (at != std::string::npos && at + 1 < text_.size()) {
      const std::size_t begin = at + 1;
      at = text_.find('\n', begin);
      const std::size_t end = at == std::string::npos ? text_.size() : at;
      const std::size_t tab = text_.find('\t', begin);
      if (tab == std::string::npos || tab >= end) continue;
      const auto node = std::strtoull(text_.c_str() + tab + 1, nullptr, 10);
      lines_.push_back({begin, end - begin, static_cast<std::size_t>(node % streams)});
    }
    streams_.reserve(static_cast<std::size_t>(streams));
    for (int node = 0; node < streams; ++node) {
      const auto paths =
          core::DatasetPaths::InDirectory(serve::NodeDir(root, node));
      streams_.push_back(std::make_unique<std::ofstream>(
          paths.memory_errors, std::ios::binary | std::ios::app));
    }
  }

  void Run(double seconds) {
    const double cpu_start = ThreadCpuSeconds();
    schedule_ = RunOpenLoop(kLiveSchedule, lines_.size(), seconds,
                            [this](std::size_t begin, std::size_t end) {
                              Emit(begin, end);
                            });
    paced_cpu_s_ = ThreadCpuSeconds() - cpu_start;
    paced_done_ = true;
    Emit(schedule_.emitted, lines_.size());
    for (auto& stream : streams_) stream->close();
  }

  [[nodiscard]] bool PacedDone() const { return paced_done_.load(); }
  [[nodiscard]] const OpenLoopRun& Schedule() const { return schedule_; }
  [[nodiscard]] double PacedCpuSeconds() const { return paced_cpu_s_; }
  [[nodiscard]] bool Ok() const {
    for (const auto& stream : streams_) {
      if (!*stream) return false;
    }
    return true;
  }

 private:
  struct Line {
    std::size_t offset;
    std::size_t length;
    std::size_t stream;
  };

  void Emit(std::size_t begin, std::size_t end) {
    std::vector<std::size_t> touched;
    for (std::size_t i = begin; i < end; ++i) {
      const Line& line = lines_[i];
      std::ofstream& out = *streams_[line.stream];
      out.write(text_.data() + line.offset, static_cast<std::streamsize>(line.length));
      out.put('\n');
      touched.push_back(line.stream);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (const std::size_t stream : touched) streams_[stream]->flush();
  }

  std::string text_;
  std::vector<Line> lines_;
  std::vector<std::unique_ptr<std::ofstream>> streams_;
  OpenLoopRun schedule_;
  double paced_cpu_s_ = 0.0;
  std::atomic<bool> paced_done_{false};
};

// Per-node monitors over the backlog, each drained (Finish) by the
// benchmark: what a drained daemon holds, without its locks and threads.
std::vector<std::unique_ptr<stream::StreamMonitor>> DrainedMonitors(
    const std::string& root, Tracer& tracer) {
  const serve::ServeOptions options = DaemonOptions(root);
  std::vector<std::unique_ptr<stream::StreamMonitor>> monitors;
  ScopedSpan span(tracer, "stream.finish_nodes");
  for (int node = 0; node < options.topology.NodeCount(); ++node) {
    monitors.push_back(std::make_unique<stream::StreamMonitor>(
        core::DatasetPaths::InDirectory(serve::NodeDir(root, node)),
        options.monitor));
    (void)monitors.back()->Finish();
  }
  return monitors;
}

// The fleet report the way ServeDaemon renders it on a stale cache
// (RenderRange): sample every node, merge, then RenderMergedReport, which
// finalizes the merged engine set and renders.  Empty when the merge is
// rejected.
std::string RenderFleetReport(
    const std::vector<std::unique_ptr<stream::StreamMonitor>>& monitors,
    const serve::ServeOptions& options, Tracer& tracer) {
  core::EngineSetConfig engine_config;
  engine_config.predictor = options.monitor.predictor;
  std::vector<serve::NodeSample> samples;
  {
    ScopedSpan span(tracer, "serve.sample");
    samples.reserve(monitors.size());
    for (const auto& monitor : monitors) samples.push_back(serve::SampleMonitor(*monitor));
  }
  std::optional<serve::MergedView> view;
  {
    ScopedSpan span(tracer, "serve.merge");
    view = serve::MergeSamples(engine_config, options.monitor.alerts, samples);
  }
  if (!view) return {};
  std::ostringstream out;
  ScopedSpan span(tracer, "serve.render");
  serve::RenderMergedReport(out, options.monitor.policy, *view);
  return std::move(out).str();
}

// Layer probe for traced runs: the merged view's Finalize on its own, the
// step RenderMergedReport runs before rendering.
void FinalizeProbe(const std::vector<std::unique_ptr<stream::StreamMonitor>>& monitors,
                   const serve::ServeOptions& options, Tracer& tracer) {
  core::EngineSetConfig engine_config;
  engine_config.predictor = options.monitor.predictor;
  std::vector<serve::NodeSample> samples;
  for (const auto& monitor : monitors) samples.push_back(serve::SampleMonitor(*monitor));
  const auto view = serve::MergeSamples(engine_config, options.monitor.alerts, samples);
  if (!view) return;
  ScopedSpan span(tracer, "core.finalize");
  const auto quality = view->Quality();
  (void)view->engines.Finalize(view->engines.InferredContext(), &quality);
}

}  // namespace

Outcome RunServeWorkload(const RunConfig& config, Tracer& tracer) {
  Outcome outcome;
  const std::string backlog_root = config.work_dir + "/backlog";
  const std::string live_root = config.work_dir + "/live";
  const std::string combined = config.work_dir + "/combined";
  const serve::ServeTopology topology = Topology();

  // Set-up: simulate, lay out the backlog fleet, the combined dataset and
  // the live fleet (headers and het streams only), and build the parity
  // oracle: `analyze` over the combined dataset.
  const std::string oracle_path = config.work_dir + "/oracle.txt";
  const std::string delivered_path = config.work_dir + "/oracle_delivered.txt";
  const std::string simulated_path = config.work_dir + "/simulated.txt";
  const auto generate = [&] {
    for (const auto& dir : {backlog_root, live_root, combined}) {
      std::filesystem::remove_all(dir);
    }
    const faultsim::CampaignResult result = ServeFleetInput(config.seed, tracer);
    {
      ScopedSpan span(tracer, "logs.write");
      if (!serve::WriteFleetDataset(result, backlog_root, topology) ||
          !serve::WriteCombinedDataset(result, combined)) {
        return false;
      }
    }
    if (!WriteLiveLayout(result, live_root)) return false;
    core::DatasetIngest ingest;
    const Lane lane = AnalyzeLane(core::DatasetPaths::InDirectory(combined), 0,
                                  tracer, &ingest);
    return lane.error.empty() && WriteText(oracle_path, lane.report) &&
           WriteText(delivered_path, std::to_string(ingest.memory_report.Delivered())) &&
           WriteText(simulated_path, std::to_string(result.memory_errors.size()));
  };
  const auto generate_t = RepeatSetup(config, tracer, generate);
  const auto oracle_report = ReadText(oracle_path);
  const auto oracle_delivered = ReadText(delivered_path);
  const auto simulated = ReadText(simulated_path);
  const auto combined_lines =
      ReadText(core::DatasetPaths::InDirectory(combined).memory_errors);
  if (!generate_t || !oracle_report || !oracle_delivered || !simulated ||
      !combined_lines) {
    outcome.Op("set-up: cannot generate the fleet datasets");
    return outcome;
  }
  Oracle oracle;
  oracle.report = *oracle_report;
  oracle.delivered = std::stoull(*oracle_delivered);

  // Warm-up: one untimed catch-up, drained and checked in full, counted in
  // set-up.
  tracer.SetRecording(false);
  std::string warm_error;
  Timing setup_t = *generate_t;
  setup_t += Timed([&] { warm_error = RunCatchUp(backlog_root, oracle, true, tracer).error; });
  if (!outcome.Op(warm_error)) return outcome;
  // Each daemon's threads leave freed memory in their own malloc arenas;
  // hand it back so every daemon starts as a fresh process would.
  malloc_trim(0);
  tracer.SetRecording(true);

  // Catch-up lane: fresh daemons (traced runs alternate).
  LaneTimes catchup;
  std::vector<double> catchup_rate;
  for (int index = 0; index < kCatchUps; ++index) {
    if (config.trace) tracer.SetRecording(index % 2 == 0);
    const CatchUp run = RunCatchUp(backlog_root, oracle, false, tracer);
    malloc_trim(0);
    if (!outcome.Op(run.error)) return outcome;
    if (!tracer.Recording()) {
      catchup_rate.push_back(static_cast<double>(run.delivered_at_ready) /
                             run.ready.wall_s);
    }
    catchup.Add(tracer, run.ready);
  }
  tracer.SetRecording(true);

  // Sweep lane: fresh daemons polled once on this thread, kSweeps before
  // the live phase and kSweeps after it, so the median spans the run
  // (traced runs alternate).
  LaneTimes sweep;
  const auto sweeps = [&] {
    for (int index = 0; index < kSweeps; ++index) {
      if (config.trace) tracer.SetRecording(index % 2 == 0);
      const Sweep run = RunSweep(backlog_root, oracle, tracer);
      malloc_trim(0);
      if (!outcome.Op(run.error)) return false;
      sweep.Add(tracer, run.timing);
    }
    tracer.SetRecording(true);
    return true;
  };
  if (!sweeps()) return outcome;

  // Report lane (traced runs only, for the serve layer's split): stale-cache
  // fleet reports over drained monitors, each checked against the oracle,
  // alternating traced and untraced.
  LaneTimes fleet_report;
  if (config.trace) {
    const serve::ServeOptions options = DaemonOptions(backlog_root);
    const auto monitors = DrainedMonitors(backlog_root, tracer);
    for (int index = 0; index < kReports; ++index) {
      tracer.SetRecording(index % 2 == 0);
      std::string report;
      const Timing timing = Timed([&] {
        ScopedSpan span(tracer, "bench.fleet_report");
        report = RenderFleetReport(monitors, options, tracer);
      });
      if (!outcome.Op(CompareWithOracle(report, oracle, "fleet report", nullptr))) {
        return outcome;
      }
      fleet_report.Add(tracer, timing);
    }
    tracer.SetRecording(true);
    FinalizeProbe(monitors, options, tracer);
  }
  malloc_trim(0);

  // The live daemon, started after the catch-ups so its pollers do not
  // run beside them; its start counts in set-up.
  serve::ServeDaemon live(DaemonOptions(live_root));
  serve::HttpServer live_server;
  std::string error;
  bool live_ok = false;
  setup_t += Timed([&] {
    live_ok = live.Init(&error) &&
              live_server.Start(serve::MakeDaemonHandler(live), 0, kHttpWorkers) &&
              live.StartServing();
  });
  if (!live_ok) {
    outcome.Op("set-up: live daemon failed to start: " + error);
    return outcome;
  }

  // Live phase.
  Producer producer(*combined_lines, live_root, topology.NodeCount());
  std::vector<double> latency_ms;
  const double process_cpu_start = ProcessCpuSeconds();
  const double query_cpu_start = ThreadCpuSeconds();
  std::thread producer_thread([&] { producer.Run(config.seconds); });
  std::uint64_t seen = live.DataGeneration();
  while (!producer.PacedDone()) {
    const std::uint64_t generation = live.DataGeneration();
    if (generation == seen) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    seen = generation;
    const auto start = std::chrono::steady_clock::now();
    const bool ok = Get(live_server, "/fleet/report").has_value();
    latency_ms.push_back(ok ? 1e3 * SecondsSince(start) : kFailedSample);
  }
  const double query_cpu_s = ThreadCpuSeconds() - query_cpu_start;
  const double process_cpu_s = ProcessCpuSeconds() - process_cpu_start;
  producer_thread.join();
  std::size_t queries_failed = 0;
  for (const double sample : latency_ms) {
    outcome.Op(std::isinf(sample) ? "live: /fleet/report failed" : "");
    queries_failed += std::isinf(sample) ? 1 : 0;
  }
  live.StopServing();
  {
    ScopedSpan span(tracer, "serve.drain");
    (void)live.Drain();
  }
  std::size_t repair_lines = 0;
  if (!outcome.Op(producer.Ok()
                      ? CheckDrained(live_server, oracle, "live", &repair_lines)
                      : "live: producer write failed")) {
    return outcome;
  }
  const auto p50 = TailPercentile(latency_ms, 50);
  const auto p90 = TailPercentile(latency_ms, 90);
  if (latency_ms.size() < kMinQueries || !p50 || !p90) {
    outcome.Op("live: only " + std::to_string(latency_ms.size()) +
               " fresh queries (at least 100 needed) or too many failed");
    return outcome;
  }

  // Layer probe (traced runs only), then the second half of the sweeps.
  double http_cached_ms = 0.0;
  if (config.trace) {
    std::vector<double> cached;
    for (int i = 0; i < 21; ++i) {
      ScopedSpan span(tracer, "serve.http_cached");
      const auto start = std::chrono::steady_clock::now();
      const bool ok = Get(live_server, "/fleet/report").has_value();
      cached.push_back(ok ? 1e3 * SecondsSince(start) : kFailedSample);
    }
    http_cached_ms = *Median(cached);
  }
  live_server.Stop();
  if (!sweeps()) return outcome;

  const Timing catchup_t = AddLane(outcome, "catchup", catchup);
  const Timing sweep_t = AddLane(outcome, "serve.poll_sweep", sweep);
  AddLane(outcome, "fleet_report", fleet_report);
  outcome.Add(outcome.named, "catchup_records_per_s", *Median(catchup_rate), "records/s");
  // One-thread sweep over the backlog versus the pollers' catch-up.
  outcome.Add(outcome.named, "serve.poller_efficiency",
              sweep_t.wall_s / (kServePollers * catchup_t.wall_s), "ratio");
  outcome.Add(outcome.named, "fleet_query_p50_ms", *p50, "ms");
  outcome.Add(outcome.named, "fleet_query_p90_ms", *p90, "ms");
  AddSetup(outcome, setup_t);
  outcome.Add(outcome.named, "serve.queries", static_cast<double>(latency_ms.size()), "count");
  outcome.Add(outcome.named, "serve.queries_failed", static_cast<double>(queries_failed), "count");
  outcome.Add(outcome.named, "serve.delivered", static_cast<double>(oracle.delivered), "count");
  // The clean campaign's same-second repeats that ingest drops as
  // duplicates: simulated records minus those `analyze` delivers.
  outcome.Add(outcome.named, "logs.records_lost",
              std::stod(*simulated) - static_cast<double>(oracle.delivered), "count");
  outcome.Add(outcome.named, "serve.daemon_cpu_s",
              process_cpu_s - producer.PacedCpuSeconds() - query_cpu_s, "s");
  outcome.Add(outcome.named, "serve.producer_late_ms",
              1e3 * MaxLateness(producer.Schedule().due_s, producer.Schedule().started_s),
              "ms");
  outcome.Add(outcome.named, "serve.report_repair_lines",
              static_cast<double>(repair_lines), "count");
  outcome.Add(outcome.named, "analyze.report_repair_lines",
              static_cast<double>(SplitRepairs(oracle.report).repair_lines), "count");
  outcome.Add(outcome.named, "serve.live_records_paced",
              static_cast<double>(producer.Schedule().emitted), "count");
  if (config.trace) {
    outcome.Add(outcome.named, "serve.http_cached_ms", http_cached_ms, "ms");
    outcome.Add(outcome.listed, "records", static_cast<double>(oracle.delivered), "count");
    outcome.Add(outcome.listed, "trace.overhead_ms",
                1e3 * (MedianTiming(sweep.traced)->cpu_s - MedianTiming(sweep.plain)->cpu_s),
                "ms");
  } else {
    outcome.Add(outcome.listed, "setup_s", setup_t.cpu_s, "s");
    outcome.Add(outcome.listed, "op_ms", *p50, "ms");
  }
  return outcome;
}

}  // namespace perfbench
