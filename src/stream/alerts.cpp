#include "stream/alerts.hpp"

#include <algorithm>

#include "core/engine.hpp"

namespace astra::stream {

static_assert(core::AnalyzerEngine<StreamingAlerts>);

std::string Alert::Message() const {
  std::string message = at.ToString() + "  ALERT ";
  switch (kind) {
    case Kind::kFleetCeRate:
      message += "fleet CE rate: " + std::to_string(count) + " CEs in " +
                 std::to_string(window_seconds) + "s window";
      break;
    case Kind::kNodeCeRate:
      message += "node " + std::to_string(node) +
                 " CE rate: " + std::to_string(count) + " CEs in " +
                 std::to_string(window_seconds) + "s window";
      break;
    case Kind::kDue:
      message += "uncorrectable (DUE) on node " + std::to_string(node);
      break;
  }
  return message;
}

void StreamingAlerts::EvictBefore(std::int64_t horizon) {
  while (!window_.empty() && window_.begin()->first <= horizon) {
    const NodeId node = window_.begin()->second;
    auto it = node_counts_.find(node);
    if (it != node_counts_.end() && --it->second == 0) node_counts_.erase(it);
    window_.erase(window_.begin());
  }
  if (fleet_fired_ && config_.fleet_ce_threshold > 0 &&
      window_.size() < config_.fleet_ce_threshold) {
    fleet_fired_ = false;  // re-arm once the burst subsides
  }
  for (auto it = node_fired_.begin(); it != node_fired_.end();) {
    const auto count_it = node_counts_.find(*it);
    const std::uint64_t count =
        count_it == node_counts_.end() ? 0 : count_it->second;
    if (count < config_.node_ce_threshold) {
      it = node_fired_.erase(it);
    } else {
      ++it;
    }
  }
}

void StreamingAlerts::Observe(const logs::MemoryErrorRecord& record,
                              std::uint64_t /*seq*/) {
  if (record.type == logs::FailureType::kUncorrectable) {
    Alert alert;
    alert.kind = Alert::Kind::kDue;
    alert.at = record.timestamp;
    alert.node = record.node;
    pending_.push_back(std::move(alert));
    return;
  }

  const std::int64_t ts = record.timestamp.Seconds();
  if (!any_ce_ || ts > max_ts_) {
    max_ts_ = ts;
    any_ce_ = true;
  }
  const std::int64_t horizon = max_ts_ - config_.window_seconds;
  EvictBefore(horizon);
  if (ts <= horizon) return;  // delivered too far out of order to count

  window_.emplace(ts, record.node);
  const std::uint64_t node_count = ++node_counts_[record.node];

  if (config_.fleet_ce_threshold > 0 && !fleet_fired_ &&
      window_.size() >= config_.fleet_ce_threshold) {
    fleet_fired_ = true;
    Alert alert;
    alert.kind = Alert::Kind::kFleetCeRate;
    alert.at = record.timestamp;
    alert.count = window_.size();
    alert.window_seconds = config_.window_seconds;
    pending_.push_back(std::move(alert));
  }
  if (config_.node_ce_threshold > 0 && node_count >= config_.node_ce_threshold &&
      node_fired_.insert(record.node).second) {
    Alert alert;
    alert.kind = Alert::Kind::kNodeCeRate;
    alert.at = record.timestamp;
    alert.node = record.node;
    alert.count = node_count;
    alert.window_seconds = config_.window_seconds;
    pending_.push_back(std::move(alert));
  }
}

bool StreamingAlerts::MergeFrom(const StreamingAlerts& other) {
  if (&other == this) return false;
  if (!(config_ == other.config_)) return false;
  for (const auto& [ts, node] : other.window_) {
    window_.emplace(ts, node);
    ++node_counts_[node];
  }
  if (other.any_ce_) {
    max_ts_ = any_ce_ ? std::max(max_ts_, other.max_ts_) : other.max_ts_;
    any_ce_ = true;
  }
  fleet_fired_ = fleet_fired_ || other.fleet_fired_;
  node_fired_.insert(other.node_fired_.begin(), other.node_fired_.end());
  pending_.insert(pending_.end(), other.pending_.begin(), other.pending_.end());
  if (any_ce_) EvictBefore(max_ts_ - config_.window_seconds);

  // A threshold the combined window crosses that neither operand had latched
  // is a burst only the merged view can see (e.g. 40 CEs/h spread over 36
  // nodes with a fleet threshold of 100).  A serial replay of the combined
  // stream would have alerted on it, so the merge must too — timestamped at
  // the merged horizon, the instant the crossing became knowable.
  if (config_.fleet_ce_threshold > 0 && !fleet_fired_ &&
      window_.size() >= config_.fleet_ce_threshold) {
    fleet_fired_ = true;
    Alert alert;
    alert.kind = Alert::Kind::kFleetCeRate;
    alert.at = SimTime{max_ts_};
    alert.count = window_.size();
    alert.window_seconds = config_.window_seconds;
    pending_.push_back(std::move(alert));
  }
  if (config_.node_ce_threshold > 0) {
    for (const auto& [node, count] : node_counts_) {
      if (count < config_.node_ce_threshold) continue;
      if (!node_fired_.insert(node).second) continue;
      Alert alert;
      alert.kind = Alert::Kind::kNodeCeRate;
      alert.at = SimTime{max_ts_};
      alert.node = node;
      alert.count = count;
      alert.window_seconds = config_.window_seconds;
      pending_.push_back(std::move(alert));
    }
  }
  return true;
}

std::vector<Alert> StreamingAlerts::Drain() {
  std::vector<Alert> drained = std::move(pending_);
  pending_.clear();
  return drained;
}

void StreamingAlerts::Snapshot(binio::Writer& writer) const {
  writer.PutU64(window_.size());
  for (const auto& [ts, node] : window_) {
    writer.PutI64(ts);
    writer.PutI32(node);
  }
  writer.PutI64(max_ts_);
  writer.PutBool(any_ce_);
  writer.PutBool(fleet_fired_);
  writer.PutU64(node_fired_.size());
  for (const NodeId node : node_fired_) writer.PutI32(node);
  writer.PutU64(pending_.size());
  for (const Alert& alert : pending_) {
    writer.PutU8(static_cast<std::uint8_t>(alert.kind));
    writer.PutI64(alert.at.Seconds());
    writer.PutI32(alert.node);
    writer.PutU64(alert.count);
    writer.PutI64(alert.window_seconds);
  }
}

bool StreamingAlerts::Restore(binio::Reader& reader) {
  const std::uint64_t window_count = reader.GetU64();
  if (!reader.CanReadItems(window_count, 12)) return false;
  for (std::uint64_t i = 0; i < window_count; ++i) {
    const std::int64_t ts = reader.GetI64();
    const NodeId node = reader.GetI32();
    window_.emplace(ts, node);
    ++node_counts_[node];  // derived, not serialized
  }
  max_ts_ = reader.GetI64();
  any_ce_ = reader.GetBool();
  fleet_fired_ = reader.GetBool();
  const std::uint64_t fired_count = reader.GetU64();
  if (!reader.CanReadItems(fired_count, sizeof(std::int32_t))) return false;
  for (std::uint64_t i = 0; i < fired_count; ++i) {
    node_fired_.insert(reader.GetI32());
  }
  const std::uint64_t pending_count = reader.GetU64();
  if (!reader.CanReadItems(pending_count, 25)) return false;
  for (std::uint64_t i = 0; i < pending_count; ++i) {
    Alert alert;
    // A kind past the last one re-encodes unchanged: the decoder refuses it.
    const std::uint8_t kind = reader.GetU8();
    if (kind > static_cast<std::uint8_t>(Alert::Kind::kDue)) return false;
    alert.kind = static_cast<Alert::Kind>(kind);
    alert.at = SimTime{reader.GetI64()};
    alert.node = reader.GetI32();
    alert.count = reader.GetU64();
    alert.window_seconds = reader.GetI64();
    pending_.push_back(std::move(alert));
  }
  return reader.Ok();
}

}  // namespace astra::stream
