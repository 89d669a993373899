#include "serve/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>

#include "core/dataset.hpp"
#include "serve/fleet_dataset.hpp"
#include "stream/checkpoint.hpp"
#include "util/strings.hpp"

namespace astra::serve {

namespace {

// The whole-tree checkpoint: one file in the stream/checkpoint.hpp envelope
// whose payload ServeDaemon::WriteTree lays out.  Version 1 named one
// ASTRACKP file per node instead; versions 2 to 4 held node snapshots in
// older monitor layouts (stream/checkpoint.hpp).  All are refused.
constexpr std::string_view kTreeCheckpointMagic = "ASTRASRV";
constexpr std::uint32_t kTreeCheckpointVersion = 5;

}  // namespace

ServeDaemon::ServeDaemon(ServeOptions options) : options_(std::move(options)) {}

bool ServeDaemon::Init(std::string* error) {
  if (!options_.topology.Valid()) {
    if (error) *error = "invalid topology";
    return false;
  }
  if (options_.root.empty()) {
    if (error) *error = "serve root directory required";
    return false;
  }
  const int nodes = options_.topology.NodeCount();
  slots_.clear();
  slots_.reserve(static_cast<std::size_t>(nodes));
  for (int node = 0; node < nodes; ++node) {
    const auto paths =
        core::DatasetPaths::InDirectory(NodeDir(options_.root, node));
    slots_.push_back(std::make_unique<NodeSlot>(paths, options_.monitor));
  }
  if (!options_.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.checkpoint_dir, ec);
    if (ec) {
      if (error) {
        *error = "cannot create checkpoint directory " +
                 options_.checkpoint_dir + ": " + ec.message();
      }
      return false;
    }
    return RestoreCheckpoint(error);
  }
  return true;
}

std::string ServeDaemon::CheckpointPath() const {
  return options_.checkpoint_dir + "/manifest.ckp";
}

bool ServeDaemon::RestoreCheckpoint(std::string* error) {
  const std::string path = CheckpointPath();
  if (!stream::RemoveStaleCheckpointTmp(path)) {
    if (error) {
      *error = "cannot remove stale manifest tmp in " + options_.checkpoint_dir;
    }
    return false;
  }
  if (!stream::CheckpointFileExists(path, options_.retry)) {
    return true;  // no checkpoint yet: a fresh start, not an error
  }
  std::uint64_t generation = 0;
  ServeTopology saved;
  bool topology_matches = true;
  // A refused payload may leave decoded nodes behind; a failed Init is fatal.
  const auto status = stream::ReadCheckpointFile(
      path, kTreeCheckpointMagic, kTreeCheckpointVersion,
      [&](binio::Reader& reader) {
        generation = reader.GetU64();
        saved.racks = static_cast<int>(reader.GetU32());
        saved.nodes_per_rack = static_cast<int>(reader.GetU32());
        if (!reader.Ok()) return false;
        topology_matches = saved == options_.topology;
        if (!topology_matches) return false;
        for (auto& slot : slots_) {
          std::lock_guard<std::mutex> lock(slot->mutex);
          if (!slot->stream_monitor.Restore(reader)) return false;
        }
        return true;
      },
      [&](binio::Writer& writer) { WriteTree(writer, generation); },
      options_.retry, options_.retry_sleep);
  if (!topology_matches) {
    if (error) {
      *error = "checkpoint manifest topology (" + std::to_string(saved.racks) +
               "x" + std::to_string(saved.nodes_per_rack) +
               ") does not match the serving topology";
    }
    return false;
  }
  if (status != stream::CheckpointStatus::kOk) {
    if (error) {
      *error = "checkpoint manifest rejected (" +
               std::string(stream::CheckpointStatusMessage(status)) + "): " +
               path;
    }
    return false;
  }
  checkpoint_generation_ = generation;
  return true;
}

void ServeDaemon::PollRange(int begin, int end) {
  // The stamp, not the poll status, says whether a report changed: a poll
  // that crosses the strict budget returns kRejected, and first sight of a
  // file with no complete line returns kIdle.
  bool changed = false;
  for (int node = begin; node < end; ++node) {
    NodeSlot& slot = *slots_[static_cast<std::size_t>(node)];
    std::lock_guard<std::mutex> lock(slot.mutex);
    const std::uint64_t stamp = slot.stream_monitor.Stamp();
    const auto status = slot.stream_monitor.Poll();
    ++slot.polls;
    slot.missing_primary = status == stream::MonitorStatus::kMissingPrimary;
    changed = changed || slot.stream_monitor.Stamp() != stamp;
  }
  if (changed) data_generation_.fetch_add(1);
}

void ServeDaemon::PollAll() {
  PollRange(0, options_.topology.NodeCount());
  ready_ = true;
}

std::size_t ServeDaemon::Drain() {
  std::size_t missing = 0;
  for (auto& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot->mutex);
    const auto status = slot->stream_monitor.Finish();
    slot->missing_primary = status == stream::MonitorStatus::kMissingPrimary;
    if (slot->missing_primary) ++missing;
  }
  data_generation_.fetch_add(1);
  ready_ = true;
  quiesced_ = true;
  return missing;
}

bool ServeDaemon::StartServing() {
  if (serving_ || slots_.empty()) return false;
  {
    // Threads from an earlier Start/Stop cycle are joined, but a new poller
    // reads stop_ as soon as it spawns — reset it under the lock it is read
    // under.
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_ = false;
  }
  serving_ = true;
  pollers_swept_ = 0;

  const int nodes = options_.topology.NodeCount();
  const int pollers = std::min(options_.pollers < 1 ? 1 : options_.pollers,
                               nodes);
  const int per_poller = (nodes + pollers - 1) / pollers;
  // Each poller reads the count on its first sweep: set it before any spawns.
  pollers_started_ = (nodes + per_poller - 1) / per_poller;
  for (int p = 0; p < pollers_started_; ++p) {
    const int begin = p * per_poller;
    const int end = std::min(nodes, begin + per_poller);
    threads_.emplace_back([this, begin, end] { PollerLoop(begin, end); });
  }
  threads_.emplace_back([this] { MergerLoop(); });
  return true;
}

void ServeDaemon::StopServing() {
  if (!serving_) return;
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
  serving_ = false;
}

void ServeDaemon::PollerLoop(int begin, int end) {
  bool first_sweep = true;
  while (true) {
    PollRange(begin, end);
    if (first_sweep) {
      first_sweep = false;
      if (pollers_swept_.fetch_add(1) + 1 >= pollers_started_) ready_ = true;
    }
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stop_cv_.wait_for(lock, std::chrono::milliseconds(options_.poll_ms),
                      [this] { return stop_; });
    if (stop_) return;
  }
}

void ServeDaemon::MergerLoop() {
  std::uint64_t last_generation = data_generation_.load();
  auto last_change = std::chrono::steady_clock::now();
  while (true) {
    {
      std::unique_lock<std::mutex> lock(stop_mutex_);
      stop_cv_.wait_for(lock, std::chrono::milliseconds(options_.merge_ms),
                        [this] { return stop_; });
      if (stop_) return;
    }
    MergeCycle();
    if (options_.quiesce_ms > 0 && !quiesced_.load() && Ready()) {
      const auto now = std::chrono::steady_clock::now();
      const std::uint64_t generation = data_generation_.load();
      if (generation != last_generation) {
        last_generation = generation;
        last_change = now;
      } else if (now - last_change >=
                 std::chrono::milliseconds(options_.quiesce_ms)) {
        // The logs stopped growing: close the books.  Drain flushes every
        // reorder buffer and finalizes the ingest accounting, so from here
        // the served reports are byte-identical to batch `analyze` over the
        // same files.  Finished monitors make later polls cheap no-ops.
        (void)Drain();
      }
    }
  }
}

void ServeDaemon::MergeCycle() {
  // Drain each node's alerts and fold its alert engine into its rack's
  // accumulator under one slot lock, so a pending alert is published exactly
  // once (the folded engine's queue is empty — anything an accumulator
  // drains below was raised BY a merge).  Node alerts publish in node order,
  // then each rack's, then the fleet's.
  const stream::AlertConfig& alert_config = options_.monitor.alerts;
  std::vector<stream::StreamingAlerts> racks(
      static_cast<std::size_t>(options_.topology.racks),
      stream::StreamingAlerts{alert_config});
  bool merged_ok = true;
  for (int node = 0; node < options_.topology.NodeCount(); ++node) {
    NodeSlot& slot = *slots_[static_cast<std::size_t>(node)];
    auto& rack_alerts =
        racks[static_cast<std::size_t>(options_.topology.RackOf(node))];
    std::vector<stream::Alert> drained;
    {
      std::lock_guard<std::mutex> lock(slot.mutex);
      drained = slot.stream_monitor.DrainAlerts();
      merged_ok &= rack_alerts.MergeFrom(slot.stream_monitor.AlertEngine());
    }
    if (!drained.empty()) hub_.PublishNode(NodeDirName(node), drained);
  }

  // The fleet folds the (drained) rack engines: crossings a rack sees are
  // published at rack scope and — because the fleet engine inherits the
  // rack's fired latches — never re-raised at fleet scope.
  stream::StreamingAlerts fleet{alert_config};
  for (int rack = 0; rack < options_.topology.racks; ++rack) {
    auto& merged = racks[static_cast<std::size_t>(rack)];
    hub_.PublishMerged("rack-" + std::to_string(rack), merged.Drain());
    merged_ok &= fleet.MergeFrom(merged);
  }
  if (merged_ok) hub_.PublishMerged("fleet", fleet.Drain());

  const std::uint64_t cycle = merge_cycles_.fetch_add(1) + 1;
  if (!options_.checkpoint_dir.empty() &&
      options_.checkpoint_every_merges > 0 &&
      cycle % static_cast<std::uint64_t>(options_.checkpoint_every_merges) ==
          0) {
    if (!SaveCheckpoint()) checkpoint_failures_.fetch_add(1);
  }
}

void ServeDaemon::WriteTree(binio::Writer& writer,
                            std::uint64_t generation) const {
  writer.PutU64(generation);
  writer.PutU32(static_cast<std::uint32_t>(options_.topology.racks));
  writer.PutU32(static_cast<std::uint32_t>(options_.topology.nodes_per_rack));
  for (const auto& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot->mutex);
    slot->stream_monitor.Snapshot(writer);
  }
}

bool ServeDaemon::SaveCheckpoint() {
  if (options_.checkpoint_dir.empty()) return true;
  if (saving_.exchange(true)) return false;  // another save owns the file
  const std::uint64_t generation = checkpoint_generation_.load() + 1;
  // Each node is snapshotted under its own slot lock, one slot at a time,
  // straight into the envelope; the file I/O starts after the last lock is
  // released.
  const auto status = stream::WriteCheckpointFile(
      CheckpointPath(), kTreeCheckpointMagic, kTreeCheckpointVersion,
      [&](binio::Writer& writer) { WriteTree(writer, generation); },
      options_.retry, options_.retry_sleep);
  if (status == stream::CheckpointStatus::kOk) {
    checkpoint_generation_ = generation;
  }
  saving_ = false;
  return status == stream::CheckpointStatus::kOk;
}

std::string ServeDaemon::RenderRange(int begin, int end) {
  std::vector<std::shared_ptr<const NodeFragment>> held;
  held.reserve(static_cast<std::size_t>(end - begin));
  for (int node = begin; node < end; ++node) {
    NodeSlot& slot = *slots_[static_cast<std::size_t>(node)];
    std::lock_guard<std::mutex> lock(slot.mutex);
    const std::uint64_t stamp = slot.stream_monitor.Stamp();
    if (slot.node_fragment == nullptr || slot.fragment_stamp != stamp) {
      slot.node_fragment =
          std::make_shared<const NodeFragment>(FragmentOf(slot.stream_monitor));
      slot.fragment_stamp = stamp;
      fragment_refreshes_.fetch_add(1);
    }
    held.push_back(slot.node_fragment);
  }
  std::vector<const NodeFragment*> fragments;
  fragments.reserve(held.size());
  for (const auto& fragment : held) fragments.push_back(fragment.get());
  std::ostringstream out;
  RenderFragments(out, options_.monitor.policy, options_.monitor.predictor,
                  fragments);
  return std::move(out).str();
}

std::string ServeDaemon::CachedReport(const std::string& key, int begin,
                                      int end) {
  const std::uint64_t generation = data_generation_.load();
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto it = report_cache_.find(key);
    if (it != report_cache_.end() && it->second.generation == generation) {
      return it->second.text;
    }
  }
  std::string text = RenderRange(begin, end);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto& entry = report_cache_[key];
  entry.generation = generation;
  entry.text = text;
  return text;
}

std::string ServeDaemon::FleetReport() {
  return CachedReport("fleet", 0, options_.topology.NodeCount());
}

std::optional<std::string> ServeDaemon::RackReport(int rack) {
  if (rack < 0 || rack >= options_.topology.racks) return std::nullopt;
  const int begin = options_.topology.RackBegin(rack);
  return CachedReport("rack-" + std::to_string(rack), begin,
                      begin + options_.topology.nodes_per_rack);
}

std::optional<std::string> ServeDaemon::NodeReport(int node) {
  if (node < 0 || node >= options_.topology.NodeCount()) return std::nullopt;
  return RenderRange(node, node + 1);
}

std::string ServeDaemon::StatsJson() {
  std::uint64_t delivered = 0;
  std::uint64_t total_polls = 0;
  std::uint64_t io_retries = 0;
  std::uint64_t nodes_missing = 0;
  for (auto& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot->mutex);
    delivered += slot->stream_monitor.Delivered();
    total_polls += slot->polls;
    io_retries += slot->stream_monitor.IoRetries();
    if (slot->missing_primary) ++nodes_missing;
  }
  std::string json = "{";
  json += "\"nodes\": " + std::to_string(options_.topology.NodeCount());
  json += ", \"racks\": " + std::to_string(options_.topology.racks);
  json += ", \"ready\": ";
  json += Ready() ? "true" : "false";
  json += ", \"quiesced\": ";
  json += Quiesced() ? "true" : "false";
  json += ", \"delivered\": " + std::to_string(delivered);
  json += ", \"polls\": " + std::to_string(total_polls);
  json += ", \"io_retries\": " + std::to_string(io_retries);
  json += ", \"missing_primary\": " + std::to_string(nodes_missing);
  json += ", \"data_generation\": " + std::to_string(data_generation_.load());
  json += ", \"merge_cycles\": " + std::to_string(merge_cycles_.load());
  json += ", \"checkpoint_generation\": " +
          std::to_string(checkpoint_generation_.load());
  json += ", \"checkpoint_failures\": " +
          std::to_string(checkpoint_failures_.load());
  json += ", \"fragment_refreshes\": " +
          std::to_string(fragment_refreshes_.load());
  json += ", \"alerts_published\": " + std::to_string(hub_.Published());
  json += ", \"webhook_failures\": " + std::to_string(hub_.WebhookFailures());
  json += "}\n";
  return json;
}

namespace {

// "/rack/12/report" -> 12 for prefix "/rack/" and suffix "/report".
std::optional<int> PathId(const std::string& path, std::string_view prefix,
                          std::string_view suffix) {
  if (path.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (path.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (path.compare(path.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  const auto id = ParseInt64(std::string_view(path).substr(
      prefix.size(), path.size() - prefix.size() - suffix.size()));
  if (!id || *id < 0 || *id > 1'000'000) return std::nullopt;
  return static_cast<int>(*id);
}

}  // namespace

HttpHandler MakeDaemonHandler(ServeDaemon& daemon) {
  return [&daemon](const HttpRequest& request) -> HttpResponse {
    HttpResponse response;
    if (request.method != "GET") {
      response.status = 405;
      response.body = "method not allowed\n";
      return response;
    }
    if (request.path == "/healthz") {
      if (daemon.Ready()) {
        response.body = "ok\n";
      } else {
        response.status = 503;
        response.body = "starting\n";
      }
      return response;
    }
    if (request.path == "/fleet/report") {
      response.body = daemon.FleetReport();
      return response;
    }
    if (const auto rack = PathId(request.path, "/rack/", "/report")) {
      if (auto report = daemon.RackReport(*rack)) {
        response.body = std::move(*report);
      } else {
        response.status = 404;
        response.body = "no such rack\n";
      }
      return response;
    }
    if (const auto node = PathId(request.path, "/node/", "/report")) {
      if (auto report = daemon.NodeReport(*node)) {
        response.body = std::move(*report);
      } else {
        response.status = 404;
        response.body = "no such node\n";
      }
      return response;
    }
    if (request.path == "/alerts") {
      response.content_type = "application/json";
      response.body = daemon.Hub().JsonSnapshot();
      return response;
    }
    if (request.path == "/stats") {
      response.content_type = "application/json";
      response.body = daemon.StatsJson();
      return response;
    }
    response.status = 404;
    response.body = "unknown endpoint\n";
    return response;
  };
}

}  // namespace astra::serve
