// Fleet dataset generator + multi-producer driver for `astra_serve`.
//
// Simulates one campaign and writes it twice: once as per-node dataset
// directories under ROOT (node-0000/, node-0001/, ... — what the daemon
// tails) and once concatenated under ROOT/combined/ (what `astra-mrt
// analyze` reads — the byte-parity oracle for /fleet/report).
//
// With --live the per-node failure logs are instead appended by several
// concurrent producer threads, each batch-flushing its own node range with a
// delay between batches — a deterministic stand-in for a fleet's telemetry
// daemons, for exercising the serve daemon against growing files.
//
// Usage:
//   serve_fleet ROOT [--racks=R] [--nodes-per-rack=P] [--seed=S]
//               [--live] [--live-batch=N] [--live-delay-ms=MS] [--producers=T]
// Defaults: ROOT astra_fleet, 2 racks x 18 nodes, seed 20190120, 4
// producers.  A flag it does not know, or a value out of range, is refused
// with exit 1 before anything is written; --help prints the usage.
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.hpp"
#include "logs/log_file.hpp"
#include "serve/fleet_dataset.hpp"
#include "serve/topology.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

namespace {

using namespace astra;

// One node's records in campaign (timestamp) order, as indices into the
// campaign vectors merged across both streams.
struct NodeFeed {
  std::vector<std::size_t> memory;
  std::vector<std::size_t> het;
};

// Append one node range's logs in batches: for each node, `batch` records
// per round (memory and het interleaved by timestamp), flush, then sleep.
void ProduceRange(const faultsim::CampaignResult& campaign,
                  const std::vector<NodeFeed>& feeds, const std::string& root,
                  int begin, int end, int batch, int delay_ms) {
  struct NodeWriter {
    logs::LogFileWriter<logs::MemoryErrorRecord> memory;
    logs::LogFileWriter<logs::HetRecord> het;
    std::size_t mi = 0;
    std::size_t hi = 0;
    NodeWriter(const core::DatasetPaths& paths)
        : memory(paths.memory_errors), het(paths.het_events) {}
  };
  std::vector<std::unique_ptr<NodeWriter>> writers;
  for (int node = begin; node < end; ++node) {
    const auto paths = core::DatasetPaths::InDirectory(
        serve::NodeDir(root, node));
    writers.push_back(std::make_unique<NodeWriter>(paths));
  }

  bool pending = true;
  while (pending) {
    pending = false;
    for (int node = begin; node < end; ++node) {
      const NodeFeed& feed = feeds[static_cast<std::size_t>(node)];
      NodeWriter& w = *writers[static_cast<std::size_t>(node - begin)];
      int in_batch = 0;
      while (in_batch < batch && (w.mi < feed.memory.size() ||
                                  w.hi < feed.het.size())) {
        const bool take_memory =
            w.hi >= feed.het.size() ||
            (w.mi < feed.memory.size() &&
             campaign.memory_errors[feed.memory[w.mi]].timestamp <=
                 campaign.het_records[feed.het[w.hi]].timestamp);
        if (take_memory) {
          w.memory.Append(campaign.memory_errors[feed.memory[w.mi++]]);
        } else {
          w.het.Append(campaign.het_records[feed.het[w.hi++]]);
        }
        ++in_batch;
      }
      w.memory.Flush();
      w.het.Flush();
      pending = pending || w.mi < feed.memory.size() || w.hi < feed.het.size();
    }
    if (pending && delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
  }
  for (auto& w : writers) {
    if (!w->memory.Finish() || !w->het.Finish()) {
      std::cerr << "producer: failed finishing a node log\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServeTopology topology;
  topology.racks = 2;
  topology.nodes_per_rack = 18;
  std::uint64_t seed = 20190120;
  bool live = false;
  int live_batch = 200;
  int live_delay_ms = 20;
  int producers = 4;
  const flags::Spec spec{
      .program = "serve_fleet",
      .commands = {{"", "ROOT"}},
      .flags = {{"--racks", "R", &topology.racks, {1}},
                {"--nodes-per-rack", "P", &topology.nodes_per_rack, {1}},
                {"--seed", "S", &seed},
                {"--live", &live},
                {"--live-batch", "N", &live_batch, {1}},
                {"--live-delay-ms", "MS", &live_delay_ms, {0}},
                {"--producers", "T", &producers, {1, 64}}}};
  const flags::Parsed parsed = flags::Parse(spec, argc, argv);
  if (const auto code = flags::Reply(spec, parsed)) return *code;
  const std::string root =
      parsed.positionals.empty() ? "astra_fleet" : parsed.positionals.front();
  if (!topology.Valid()) {
    std::cerr << "invalid topology\n";
    return 1;
  }

  const int nodes = topology.NodeCount();
  faultsim::CampaignConfig config;
  config.SeedFrom(seed);
  config.node_count = nodes;
  std::cout << "simulating " << nodes << " nodes (" << topology.racks
            << " racks x " << topology.nodes_per_rack << "), seed " << seed
            << " ...\n";
  const faultsim::CampaignResult campaign =
      faultsim::FleetSimulator(config).Run();

  // The combined (analyze-oracle) copy is always written whole up front —
  // only the per-node copies grow live.
  if (!serve::WriteCombinedDataset(campaign, root + "/combined")) {
    std::cerr << "failed to write " << root << "/combined\n";
    return 2;
  }

  if (!live) {
    if (!serve::WriteFleetDataset(campaign, root, topology)) {
      std::cerr << "failed to write per-node datasets under " << root << "\n";
      return 2;
    }
    std::cout << "wrote " << WithThousands(campaign.memory_errors.size())
              << " memory error records across " << nodes
              << " node directories under " << root << "/\n";
    return 0;
  }

  // Live mode: create the node directories (with headers via the writers in
  // ProduceRange), split the campaign per node, and let `producers` threads
  // each drive a contiguous node range.
  std::error_code ec;
  for (int node = 0; node < nodes; ++node) {
    std::filesystem::create_directories(serve::NodeDir(root, node), ec);
    if (ec) {
      std::cerr << "failed to create node directories under " << root << "\n";
      return 2;
    }
  }
  std::vector<NodeFeed> feeds(static_cast<std::size_t>(nodes));
  for (std::size_t i = 0; i < campaign.memory_errors.size(); ++i) {
    const int node = static_cast<int>(campaign.memory_errors[i].node) % nodes;
    feeds[static_cast<std::size_t>(node)].memory.push_back(i);
  }
  for (std::size_t i = 0; i < campaign.het_records.size(); ++i) {
    const int node = static_cast<int>(campaign.het_records[i].node) % nodes;
    feeds[static_cast<std::size_t>(node)].het.push_back(i);
  }

  const int threads = std::min(producers, nodes);
  const int per_thread = (nodes + threads - 1) / threads;
  std::cout << "appending live with " << threads << " producers (batch "
            << live_batch << ", delay " << live_delay_ms << "ms) ...\n";
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    const int begin = t * per_thread;
    const int end = std::min(nodes, begin + per_thread);
    if (begin >= end) break;
    pool.emplace_back([&, begin, end] {
      ProduceRange(campaign, feeds, root, begin, end, live_batch,
                   live_delay_ms);
    });
  }
  for (auto& thread : pool) thread.join();
  std::cout << "done: " << WithThousands(campaign.memory_errors.size())
            << " memory error records across " << nodes
            << " node directories under " << root << "/\n";
  return 0;
}
