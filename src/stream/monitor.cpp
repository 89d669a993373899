#include "stream/monitor.hpp"

namespace astra::stream {

core::EngineSetConfig StreamMonitor::EngineConfig() const {
  core::EngineSetConfig config;
  config.predictor = config_.predictor;
  return config;
}

StreamMonitor::StreamMonitor(const core::DatasetPaths& paths,
                             const MonitorConfig& config)
    : paths_(paths),
      config_(config),
      memory_reader_(paths.memory_errors, config.policy, config.io_retry),
      het_reader_(paths.het_events, config.policy, config.io_retry),
      set_(EngineConfig()),
      alerts_(config.alerts) {}

void StreamMonitor::FlushPending() {
  if (pending_.empty()) return;
  // Batched delivery to the engine set — identical state to per-record
  // ObserveMemory (core/engine.hpp), and the set still numbers the stream
  // itself, so the delivery index stays the batch evaluator's stable-sort
  // tie-break.  Alerts see records one at a time, in delivery order,
  // exactly as before.
  set_.ObserveMemoryBatch(pending_);
  for (const auto& record : pending_) alerts_.Observe(record);
  pending_.clear();
}

bool StreamMonitor::Rejected() const {
  if (!memory_reader_.Report().AcceptedBy(config_.policy)) return true;
  return het_reader_.SeenFile() &&
         !het_reader_.Report().AcceptedBy(config_.policy);
}

bool StreamMonitor::HetMissing() const {
  return memory_reader_.Report().AcceptedBy(config_.policy) &&
         memory_reader_.SeenFile() && !het_reader_.SeenFile();
}

template <typename Step>
MonitorStatus StreamMonitor::Stamped(Step step) {
  const auto before = std::tuple(Progress(memory_reader_), Progress(het_reader_));
  const MonitorStatus status = step();
  if (std::tuple(Progress(memory_reader_), Progress(het_reader_)) != before) {
    ++stamp_;
  }
  return status;
}

MonitorStatus StreamMonitor::Poll() {
  return Stamped([this] { return PollStreams(); });
}

MonitorStatus StreamMonitor::Finish() {
  return Stamped([this] { return FinishStreams(); });
}

MonitorStatus StreamMonitor::PollStreams() {
  const auto memory_sink = [this](const logs::MemoryErrorRecord& r) {
    pending_.push_back(r);
  };
  const TailStatus memory_status = memory_reader_.Poll(memory_sink);
  FlushPending();
  if (memory_status == TailStatus::kMissing && !memory_reader_.SeenFile()) {
    return MonitorStatus::kMissingPrimary;
  }
  bool advanced = memory_status == TailStatus::kAdvanced ||
                  memory_status == TailStatus::kRotated;
  if (memory_reader_.Report().AcceptedBy(config_.policy)) {
    const TailStatus het_status = het_reader_.Poll(
        [this](const logs::HetRecord& r) { set_.ObserveHet(r); });
    advanced = advanced || het_status == TailStatus::kAdvanced ||
               het_status == TailStatus::kRotated;
  }
  if (Rejected()) return MonitorStatus::kRejected;
  return advanced ? MonitorStatus::kAdvanced : MonitorStatus::kIdle;
}

MonitorStatus StreamMonitor::FinishStreams() {
  memory_reader_.Finish(
      [this](const logs::MemoryErrorRecord& r) { pending_.push_back(r); });
  FlushPending();
  if (!memory_reader_.SeenFile()) return MonitorStatus::kMissingPrimary;
  if (!memory_reader_.Report().AcceptedBy(config_.policy)) {
    return MonitorStatus::kRejected;  // het stays untouched, like the batch
  }
  het_reader_.Finish([this](const logs::HetRecord& r) { set_.ObserveHet(r); });
  if (Rejected()) return MonitorStatus::kRejected;
  return MonitorStatus::kAdvanced;
}

core::DataQuality StreamMonitor::Quality() const {
  auto quality = core::DataQuality::FromReport(memory_reader_.Report());
  if (HetMissing()) {
    quality.stream_missing = true;
  } else if (het_reader_.SeenFile()) {
    quality.Merge(core::DataQuality::FromReport(het_reader_.Report()));
  }
  return quality;
}

core::AnalysisArtifacts StreamMonitor::Artifacts() const {
  const core::DataQuality quality = Quality();
  return set_.Finalize(set_.InferredContext(), &quality);
}

void StreamMonitor::Snapshot(binio::Writer& writer) const {
  memory_reader_.SaveState(writer);
  het_reader_.SaveState(writer);
  set_.Snapshot(writer);
  alerts_.Snapshot(writer);
}

void StreamMonitor::Reset() {
  memory_reader_ = TailReader<logs::MemoryErrorRecord>(paths_.memory_errors,
                                                      config_.policy, config_.io_retry);
  het_reader_ =
      TailReader<logs::HetRecord>(paths_.het_events, config_.policy, config_.io_retry);
  set_ = core::AnalysisEngineSet{EngineConfig()};
  alerts_ = StreamingAlerts{config_.alerts};
}

bool StreamMonitor::Restore(binio::Reader& reader) {
  ++stamp_;  // Reset replaces every reader and engine, whatever the outcome
  Reset();
  const bool ok = memory_reader_.LoadState(reader) &&
                  het_reader_.LoadState(reader) && set_.Restore(reader) &&
                  alerts_.Restore(reader);
  if (!ok || !reader.Ok()) {
    Reset();
    return false;
  }
  return true;
}

}  // namespace astra::stream
