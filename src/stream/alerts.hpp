// Live burst/alert evaluation over the delivered CE stream — the one
// analysis with no batch counterpart, and the first engine written natively
// against the core/engine.hpp contract: a sliding CE window with fleet and
// per-node burst thresholds plus DUE alerts, rising-edge triggered so a
// sustained burst alerts once and re-arms only after it subsides.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "logs/records.hpp"
#include "util/binio.hpp"
#include "util/sim_time.hpp"

namespace astra::stream {

struct AlertConfig {
  std::int64_t window_seconds = 3600;
  std::uint64_t fleet_ce_threshold = 0;  // 0 = rule disabled
  std::uint64_t node_ce_threshold = 0;   // 0 = rule disabled

  friend bool operator==(const AlertConfig&, const AlertConfig&) = default;
};

struct Alert {
  enum class Kind : std::uint8_t { kFleetCeRate = 0, kNodeCeRate, kDue };
  Kind kind = Kind::kFleetCeRate;
  SimTime at;
  NodeId node = -1;  // -1 for fleet-wide alerts
  std::uint64_t count = 0;
  std::int64_t window_seconds = 0;

  [[nodiscard]] std::string Message() const;
};

class StreamingAlerts {
 public:
  explicit StreamingAlerts(const AlertConfig& config = {}) : config_(config) {}

  // Alerting is edge-triggered over the arrival order, so the global
  // sequence number carries no extra information; it is accepted for the
  // engine contract and unused.
  void Observe(const logs::MemoryErrorRecord& record, std::uint64_t seq = 0);

  // Conservative union: window contents combine (then re-evict against the
  // merged horizon), fired latches OR, every pending alert survives, and any
  // threshold the MERGED window crosses that no operand had latched fires a
  // fresh alert (timestamped at the merged max) — so an alert a serial
  // replay of the combined stream would have raised is never dropped.
  // Edge-triggered alerting is inherently sequential, so a merged engine may
  // hold alerts a serial replay would not have raised (never the reverse).
  // The serve daemon (src/serve/daemon.cpp) folds per-node alert engines
  // rack -> fleet this way to detect cross-node bursts no single stream sees.
  // False on a config mismatch or self-merge.
  [[nodiscard]] bool MergeFrom(const StreamingAlerts& other);

  // Pending alerts in firing order; clears the queue.
  [[nodiscard]] std::vector<Alert> Drain();

  void Snapshot(binio::Writer& writer) const;
  // Decodes into a freshly constructed engine.  False on a malformed payload
  // or an unknown alert kind.
  [[nodiscard]] bool Restore(binio::Reader& reader);

 private:
  void EvictBefore(std::int64_t horizon);

  AlertConfig config_;
  // CEs currently inside the sliding window, ordered by timestamp (records
  // can be delivered slightly out of order within the reorder window).
  std::multimap<std::int64_t, NodeId> window_;
  std::map<NodeId, std::uint64_t> node_counts_;
  std::int64_t max_ts_ = 0;
  bool any_ce_ = false;
  // Rising-edge arming: a threshold alerts once, then re-arms only after
  // the count falls back below it.
  bool fleet_fired_ = false;
  std::set<NodeId> node_fired_;
  std::vector<Alert> pending_;
};

}  // namespace astra::stream
