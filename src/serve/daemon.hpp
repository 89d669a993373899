// ServeDaemon: the long-running fleet monitor behind `astra_serve`.  One
// chaos-hardened StreamMonitor per node directory tails that node's logs;
// poller threads sweep contiguous node ranges; a merger thread drains
// alerts, reduces per-node alert engines rack -> fleet (surfacing
// cross-node bursts no single stream sees), and checkpoints the whole tree
// as one file, <checkpoint_dir>/manifest.ckp, through the writer and reader
// of stream/checkpoint.hpp.  A query runs the fleet step over the range's
// node fragments (serve/merge_tree.hpp), so a served report is
// byte-identical to `analyze` over the same delivered records at any
// instant.
//
// Locking: one mutex per node slot guards its monitor and its cached node
// fragment.  Every read of a monitor happens under that slot's lock, one
// slot at a time: a query takes each node's fragment, rebuilding it first
// only when the monitor's report stamp moved since it was built; the merger
// drains the node's alerts and folds its alert engine into the rack's
// accumulator; and a checkpoint save snapshots the node into the envelope.
// The fleet step, rendering, alert publication and all checkpoint I/O
// happen outside every slot lock.  Rendered fleet/rack reports are cached
// against a data generation counter bumped by every poll sweep that moved
// some node's stamp, so an idle fleet serves queries without touching a
// single node lock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/alert_hub.hpp"
#include "serve/http.hpp"
#include "serve/merge_tree.hpp"
#include "serve/topology.hpp"
#include "stream/monitor.hpp"
#include "util/retry.hpp"
#include "util/thread_annotations.hpp"

namespace astra::serve {

struct ServeOptions {
  std::string root;  // holds one node-XXXX/ dataset dir per node
  ServeTopology topology;
  stream::MonitorConfig monitor;
  int poll_ms = 200;
  int merge_ms = 1000;
  int pollers = 4;
  std::string checkpoint_dir;       // empty = checkpointing off
  int checkpoint_every_merges = 5;  // checkpoint cadence, in merge cycles
  // When > 0: once every stream has been idle this long, drain the fleet
  // (Finish per node — terminal) and keep serving the now-final reports.
  // For bounded campaigns and tests, where "the logs stopped growing" means
  // "the campaign ended"; a forever-tailing deployment leaves this 0.
  int quiesce_ms = 0;
  RetryPolicy retry;                // checkpoint I/O
  SleepFn retry_sleep;              // paces checkpoint retries (null = none)
};

class ServeDaemon {
 public:
  explicit ServeDaemon(ServeOptions options);
  ~ServeDaemon() { StopServing(); }
  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  // Build the node monitors and, when a checkpoint exists, restore every
  // node from it (no checkpoint is a fresh start; a damaged one, or one of
  // another version or topology, is an error — the operator decides
  // whether to delete it).  False with a diagnostic in `error` on invalid
  // options or a failed restore.
  [[nodiscard]] bool Init(std::string* error);

  // Spawn the poller and merger threads.  Init must have succeeded.
  [[nodiscard]] bool StartServing();
  // Join every thread.  Idempotent; does NOT checkpoint (callers decide
  // whether the exit is clean enough to deserve one).
  void StopServing();

  // One synchronous sweep: poll every node once on the calling thread.
  // The one-shot drain path and tests use this instead of StartServing.
  void PollAll();
  // Consume everything currently in every node's files and close the
  // accounting (monitor Finish per node).  Returns the number of nodes
  // whose primary log was never readable.
  std::size_t Drain();

  // Save the whole tree now as the next checkpoint generation, in one
  // atomic file.  False — the previous checkpoint left in force — on any I/O
  // failure, or when another SaveCheckpoint call is still writing.
  [[nodiscard]] bool SaveCheckpoint();

  // True once every node has been polled at least once (or drained).
  [[nodiscard]] bool Ready() const { return ready_.load(); }
  // True once the fleet has been drained (ServeOptions::quiesce_ms fired, or
  // Drain was called directly): reports are final from here on.
  [[nodiscard]] bool Quiesced() const { return quiesced_.load(); }
  // Bumped by every poll sweep that moved some node's report stamp; queries
  // cache against it.
  [[nodiscard]] std::uint64_t DataGeneration() const {
    return data_generation_.load();
  }

  [[nodiscard]] std::string FleetReport();
  [[nodiscard]] std::optional<std::string> RackReport(int rack);
  [[nodiscard]] std::optional<std::string> NodeReport(int node);
  [[nodiscard]] std::string StatsJson();

  [[nodiscard]] AlertHub& Hub() { return hub_; }
  [[nodiscard]] const ServeOptions& Options() const { return options_; }

 private:
  struct NodeSlot {
    NodeSlot(const core::DatasetPaths& paths,
             const stream::MonitorConfig& config)
        // astra-lint: allow(lock-guarded-field): constructing the slot — no other thread can hold a reference yet
        : stream_monitor(paths, config) {}
    std::mutex mutex;
    stream::StreamMonitor stream_monitor ASTRA_GUARDED_BY(mutex);
    std::uint64_t polls ASTRA_GUARDED_BY(mutex) = 0;
    bool missing_primary ASTRA_GUARDED_BY(mutex) = false;
    // The node's report fragment and the monitor stamp it was built at.
    // Shared, immutable: a render keeps its pointer after the lock is gone.
    std::shared_ptr<const NodeFragment> node_fragment ASTRA_GUARDED_BY(mutex);
    std::uint64_t fragment_stamp ASTRA_GUARDED_BY(mutex) = 0;
  };

  void PollRange(int begin, int end);
  void PollerLoop(int begin, int end);
  void MergerLoop();
  void MergeCycle();
  // The report over nodes [begin, end): each node's fragment under its own
  // slot lock, in node order, then the fleet step and the render after the
  // last lock is released.
  [[nodiscard]] std::string RenderRange(int begin, int end);
  // Serve `key` from the rendered-report cache, rebuilding when the data
  // generation moved past the cached copy.
  [[nodiscard]] std::string CachedReport(const std::string& key, int begin,
                                         int end);
  [[nodiscard]] std::string CheckpointPath() const;
  // The ASTRASRV payload, for a save and a restore's re-encode alike:
  // `generation` (u64), the topology (u32 racks, u32 nodes_per_rack), then
  // every node's StreamMonitor::Snapshot in node order under its slot lock.
  void WriteTree(binio::Writer& writer, std::uint64_t generation) const;
  [[nodiscard]] bool RestoreCheckpoint(std::string* error);

  ServeOptions options_;
  std::vector<std::unique_ptr<NodeSlot>> slots_;
  AlertHub hub_;

  std::atomic<bool> ready_{false};
  std::atomic<bool> quiesced_{false};
  std::atomic<std::uint64_t> data_generation_{0};
  std::atomic<std::uint64_t> merge_cycles_{0};
  std::atomic<std::uint64_t> checkpoint_generation_{0};
  std::atomic<std::uint64_t> checkpoint_failures_{0};
  std::atomic<std::uint64_t> fragment_refreshes_{0};  // node fragments built
  std::atomic<bool> saving_{false};  // a SaveCheckpoint call owns the file
  std::atomic<int> pollers_swept_{0};
  int pollers_started_ = 0;  // set before the threads spawn

  std::vector<std::thread> threads_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_ ASTRA_GUARDED_BY(stop_mutex_) = false;
  bool serving_ = false;  // touched only by the Start/Stop caller thread

  std::mutex cache_mutex_;
  struct CachedEntry {
    std::uint64_t generation = 0;
    std::string text;
  };
  std::map<std::string, CachedEntry> report_cache_
      ASTRA_GUARDED_BY(cache_mutex_);
};

// The daemon's HTTP surface: /healthz, /fleet/report, /rack/{id}/report,
// /node/{id}/report, /alerts, /stats.  The handler outlives neither the
// daemon nor the hub — stop the server before destroying the daemon.
[[nodiscard]] HttpHandler MakeDaemonHandler(ServeDaemon& daemon);

}  // namespace astra::serve
