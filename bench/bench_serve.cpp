// astra_serve load test: N producer threads replay a campaign into N node
// streams while query clients hammer the daemon's HTTP API, for N in
// {1, 4, 36}.  Two throughput numbers per stream count, medians over
// repetitions, written to BENCH_serve.json for the CI bench gate:
//
//   serve_ingest_records_per_s  - records delivered through the whole
//                                 tail -> engine -> merge pipeline per
//                                 wall-clock second, producers included
//   serve_query_qps             - /fleet/report + /stats queries answered
//                                 over loopback HTTP during that same
//                                 ingest window
//
// The sweep ends each run with Drain() and asserts the fleet saw every
// record, so a rate here is a rate over CORRECT output — dropping records
// can never look like a speedup.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "faultsim/fleet.hpp"
#include "logs/serialize.hpp"
#include "serve/daemon.hpp"
#include "serve/fleet_dataset.hpp"
#include "serve/http.hpp"
#include "util/flags.hpp"

namespace astra {
namespace {

struct BenchOptions {
  int campaign_nodes = 400;
  int reps = 5;
  std::uint64_t seed = 1;
};

struct RunSample {
  std::int64_t records = 0;
  double ingest_seconds = 0.0;
  std::int64_t queries = 0;
  // Fixed-work query pass against the quiesced (drained, report-cached)
  // daemon: the steady-state serving rate, free of ingest contention.
  double quiesced_qps = 0.0;
};

// streams -> serving topology (racks x nodes_per_rack == streams).
const std::map<int, serve::ServeTopology>& StreamShapes() {
  static const std::map<int, serve::ServeTopology> shapes = {
      {1, {1, 1}}, {4, {2, 2}}, {36, {6, 6}}};
  return shapes;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// One producer: append `lines` to `path` in batches, flushing each batch so
// the monitor's next poll can see it — a syslog forwarder's write pattern.
void ProduceStream(const std::string& path,
                   const std::vector<const std::string*>& lines) {
  constexpr std::size_t kBatch = 500;
  std::ofstream out(path, std::ios::binary | std::ios::app);
  for (std::size_t at = 0; at < lines.size(); at += kBatch) {
    const std::size_t end = std::min(lines.size(), at + kBatch);
    for (std::size_t i = at; i < end; ++i) out << *lines[i] << '\n';
    out.flush();
  }
}

// The daemon's delivered count after a drain, for any stream split, must
// equal the one-stream batch count (dedup happens per node, and the split
// keeps a node's records together).  Computed once per campaign.
std::uint64_t ExpectedDelivered(const faultsim::CampaignResult& campaign) {
  const auto dir =
      std::filesystem::temp_directory_path() / "astra_bench_serve_oracle";
  std::filesystem::remove_all(dir);
  if (!serve::WriteCombinedDataset(campaign, dir.string())) return 0;
  stream::StreamMonitor monitor(core::DatasetPaths::InDirectory(dir.string()),
                                stream::MonitorConfig{});
  (void)monitor.Finish();
  const std::uint64_t delivered = monitor.Delivered();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return delivered;
}

RunSample RunOnce(const faultsim::CampaignResult& campaign,
                  std::uint64_t expected_delivered,
                  const serve::ServeTopology& topology, int pass) {
  const int nodes = topology.NodeCount();
  const auto root = std::filesystem::temp_directory_path() /
                    ("astra_bench_serve_n" + std::to_string(nodes) + "_" +
                     std::to_string(pass));
  std::filesystem::remove_all(root);

  // Route records by node id modulo the stream count — the same split
  // WriteFleetDataset uses, so the daemon's merged view covers everything.
  std::vector<std::string> memory_lines;
  memory_lines.reserve(campaign.memory_errors.size());
  for (const auto& record : campaign.memory_errors) {
    memory_lines.push_back(logs::FormatRecord(record));
  }
  std::vector<std::vector<const std::string*>> per_node(
      static_cast<std::size_t>(nodes));
  for (std::size_t i = 0; i < campaign.memory_errors.size(); ++i) {
    const int node = static_cast<int>(campaign.memory_errors[i].node) % nodes;
    per_node[static_cast<std::size_t>(node)].push_back(&memory_lines[i]);
  }

  // Headers and the (static) het stream exist before the daemon starts; the
  // memory stream is what the producers replay live.
  for (int node = 0; node < nodes; ++node) {
    const std::string dir = serve::NodeDir(root.string(), node);
    std::filesystem::create_directories(dir);
    const auto paths = core::DatasetPaths::InDirectory(dir);
    std::ofstream memory(paths.memory_errors, std::ios::binary);
    memory << logs::MemoryErrorHeader() << '\n';
    std::ofstream het(paths.het_events, std::ios::binary);
    het << logs::HetHeader() << '\n';
    for (const auto& record : campaign.het_records) {
      if (static_cast<int>(record.node) % nodes == node) {
        het << logs::FormatRecord(record) << '\n';
      }
    }
  }

  serve::ServeOptions options;
  options.root = root.string();
  options.topology = topology;
  options.poll_ms = 1;
  options.merge_ms = 5;
  options.pollers = 4;
  RunSample sample;
  serve::ServeDaemon daemon(options);
  std::string error;
  if (!daemon.Init(&error) || !daemon.StartServing()) {
    std::fprintf(stderr, "bench_serve: daemon failed: %s\n", error.c_str());
    return sample;
  }
  serve::HttpServer server;
  if (!server.Start(serve::MakeDaemonHandler(daemon), 0, 2)) {
    std::fprintf(stderr, "bench_serve: http server failed to start\n");
    return sample;
  }

  // Query clients hammer the API for the whole ingest window.
  std::atomic<bool> stop_queries{false};
  std::atomic<std::int64_t> queries{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      const std::string path = c == 0 ? "/fleet/report" : "/stats";
      while (!stop_queries.load()) {
        const auto result =
            serve::HttpFetch("127.0.0.1", server.Port(), "GET", path);
        if (result && result->status == 200) queries.fetch_add(1);
      }
    });
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  producers.reserve(static_cast<std::size_t>(nodes));
  for (int node = 0; node < nodes; ++node) {
    const auto paths =
        core::DatasetPaths::InDirectory(serve::NodeDir(root.string(), node));
    producers.emplace_back(ProduceStream, paths.memory_errors,
                           per_node[static_cast<std::size_t>(node)]);
  }
  for (auto& producer : producers) producer.join();
  daemon.StopServing();
  const std::size_t missing = daemon.Drain();  // deliver the reorder tails
  sample.ingest_seconds = SecondsSince(start);

  stop_queries = true;
  for (auto& client : clients) client.join();
  server.Stop();

  if (missing != 0) {
    std::fprintf(stderr, "bench_serve: %zu streams unreadable\n", missing);
    return RunSample{};
  }
  // A rate is only meaningful over correct output: the drained fleet must
  // deliver exactly what the one-stream batch pass delivers.
  const std::string stats = daemon.StatsJson();
  const std::string expected =
      "\"delivered\": " + std::to_string(expected_delivered);
  if (stats.find(expected) == std::string::npos) {
    std::fprintf(stderr, "bench_serve: delivery mismatch (want %llu): %s",
                 static_cast<unsigned long long>(expected_delivered),
                 stats.c_str());
    return RunSample{};
  }
  sample.records = static_cast<std::int64_t>(expected_delivered);
  sample.queries = queries.load();

  // Steady state: the fleet is final and the report cache is warm, so this
  // measures the HTTP + cache path alone.  Fixed work, not fixed time.
  constexpr int kQuiescedQueries = 250;
  serve::HttpServer quiet_server;
  if (quiet_server.Start(serve::MakeDaemonHandler(daemon), 0, 2)) {
    (void)serve::HttpFetch("127.0.0.1", quiet_server.Port(), "GET",
                           "/fleet/report");  // warm the cache
    const auto quiesced_start = std::chrono::steady_clock::now();
    std::vector<std::thread> quiet_clients;
    for (int c = 0; c < 2; ++c) {
      quiet_clients.emplace_back([&, c] {
        const std::string path = c == 0 ? "/fleet/report" : "/stats";
        for (int i = 0; i < kQuiescedQueries; ++i) {
          (void)serve::HttpFetch("127.0.0.1", quiet_server.Port(), "GET",
                                 path);
        }
      });
    }
    for (auto& client : quiet_clients) client.join();
    const double seconds = SecondsSince(quiesced_start);
    if (seconds > 0.0) sample.quiesced_qps = 2.0 * kQuiescedQueries / seconds;
    quiet_server.Stop();
  }

  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  return sample;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

int Run(const BenchOptions& options) {
  faultsim::CampaignConfig config;
  config.SeedFrom(options.seed);
  config.node_count = options.campaign_nodes;
  const auto campaign = faultsim::FleetSimulator(config).Run();
  const std::uint64_t expected_delivered = ExpectedDelivered(campaign);
  if (expected_delivered == 0) {
    std::fprintf(stderr, "bench_serve: oracle pass failed\n");
    return 1;
  }
  std::fprintf(stderr,
               "bench_serve: campaign of %zu memory records (%llu delivered)\n",
               campaign.memory_errors.size(),
               static_cast<unsigned long long>(expected_delivered));

  std::string sweep_json;
  bool first = true;
  for (const auto& [streams, topology] : StreamShapes()) {
    std::vector<double> ingest_rates;
    std::vector<double> qps;
    std::vector<double> quiesced;
    std::int64_t records = 0;
    std::int64_t queries = 0;
    for (int rep = 0; rep < options.reps; ++rep) {
      const RunSample sample =
          RunOnce(campaign, expected_delivered, topology, rep);
      if (sample.records == 0 || sample.ingest_seconds <= 0.0) return 1;
      ingest_rates.push_back(static_cast<double>(sample.records) /
                             sample.ingest_seconds);
      qps.push_back(static_cast<double>(sample.queries) /
                    sample.ingest_seconds);
      quiesced.push_back(sample.quiesced_qps);
      records += sample.records;
      queries += sample.queries;
    }
    const double ingest = Median(ingest_rates);
    const double query_qps = Median(qps);
    const double quiesced_qps = Median(quiesced);
    std::fprintf(stderr,
                 "bench_serve: streams=%d ingest=%.0f records/s "
                 "live_qps=%.0f quiesced_qps=%.0f\n",
                 streams, ingest, query_qps, quiesced_qps);
    sweep_json += first ? "" : ",\n";
    sweep_json += "    {\"streams\": " + std::to_string(streams) +
                  ", \"records\": " + std::to_string(records) +
                  ", \"queries\": " + std::to_string(queries) +
                  ", \"ingest_records_per_s\": " + std::to_string(ingest) +
                  ", \"query_qps\": " + std::to_string(query_qps) +
                  ", \"quiesced_qps\": " + std::to_string(quiesced_qps) + "}";
    first = false;
  }

  std::ofstream out("BENCH_serve.json");
  out << "{\n  \"campaign_records\": " << campaign.memory_errors.size()
      << ",\n  \"reps\": " << options.reps << ",\n  \"sweep\": [\n"
      << sweep_json << "\n  ]\n}\n";
  std::fprintf(stderr, "wrote serve sweep to BENCH_serve.json\n");
  return 0;
}

}  // namespace
}  // namespace astra

int main(int argc, char** argv) {
  astra::BenchOptions options;
  bool quick = false;
  const astra::flags::Spec spec{.program = "bench_serve",
                                .flags = {{"--quick", &quick},
                                          {"--nodes", "N", &options.campaign_nodes, {1}},
                                          {"--reps", "N", &options.reps, {1}}}};
  const astra::flags::Parsed parsed = astra::flags::Parse(spec, argc, argv);
  if (const auto code = astra::flags::Reply(spec, parsed)) return *code;
  // --quick shrinks whatever is not given explicitly.
  if (quick && !parsed.Given("--nodes")) options.campaign_nodes = 100;
  if (quick && !parsed.Given("--reps")) options.reps = 3;
  return astra::Run(options);
}
