// StreamMonitor: the streaming driver over the single analysis core
// (core/engine.hpp).  It tail-follows a dataset directory's memory_errors
// and het_events logs, feeds every delivered record into the SAME engines
// the batch drivers replay, and can finalize core::AnalysisArtifacts at any
// moment — parity with `astra-mrt analyze` over the same files holds BY
// CONSTRUCTION, because there is no second analyzer implementation to
// drift.  Snapshot/Restore checkpoint the whole pipeline (both reader
// cursors plus the engine set and the alert engine), so a restarted watcher
// resumes mid-file without re-reading or double-counting a single record.
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/dataset.hpp"
#include "core/engine.hpp"
#include "stream/alerts.hpp"
#include "stream/tail_reader.hpp"
#include "util/retry.hpp"

namespace astra::stream {

struct MonitorConfig {
  logs::IngestPolicy policy;
  AlertConfig alerts;
  core::PredictorConfig predictor;
  // In-poll retry budget for transient map failures on either stream.  The
  // attempts run back to back; the poll cadence provides the pacing.  The
  // default is fail-fast, one attempt per poll.
  RetryPolicy io_retry = RetryPolicy::None();
};

enum class MonitorStatus {
  kIdle,            // nothing new this step
  kAdvanced,        // delivered at least one new record (or consumed lines)
  kRejected,        // strict policy rejected a stream (sticky)
  kMissingPrimary,  // memory_errors has never been readable
};

class StreamMonitor {
 public:
  StreamMonitor(const core::DatasetPaths& paths, const MonitorConfig& config);

  // One incremental step: poll memory_errors, then het_events.  The het
  // stream is left untouched while the memory stream stands rejected —
  // matching the batch ingest, which never opens het_events in that case.
  MonitorStatus Poll();

  // Consume everything currently in the files and close the accounting.
  // After this the ingest reports and artifacts are final.  Idempotent.
  MonitorStatus Finish();

  [[nodiscard]] bool Rejected() const;
  [[nodiscard]] bool MemorySeen() const { return memory_reader_.SeenFile(); }
  [[nodiscard]] bool HetSeen() const { return het_reader_.SeenFile(); }
  // True when the het stream should be reported as absent (memory stream
  // accepted but het_events never readable).  While the memory stream is
  // rejected the batch path reports an untouched (all-zero) het ingest
  // instead, and so does this.
  [[nodiscard]] bool HetMissing() const;
  [[nodiscard]] std::uint64_t Delivered() const { return set_.Delivered(); }
  // The report stamp: it moves on every change a report over this monitor
  // can see — consumed bytes, a rotation, a strict budget abort, first sight
  // of a file, Finish and Restore — and never on an idle poll or a poll of a
  // file that is still missing.  Equal stamps mean equal reports.  Counts
  // from 0 at construction; never checkpointed.
  [[nodiscard]] std::uint64_t Stamp() const { return stamp_; }
  // Transient map failures absorbed by in-poll retries, summed over both
  // streams.  Observability only — never part of reports or checkpoints.
  [[nodiscard]] std::uint64_t IoRetries() const {
    return memory_reader_.IoRetries() + het_reader_.IoRetries();
  }
  [[nodiscard]] const logs::IngestReport& MemoryReport() const {
    return memory_reader_.Report();
  }
  [[nodiscard]] const logs::IngestReport& HetReport() const {
    return het_reader_.Report();
  }

  [[nodiscard]] core::DataQuality Quality() const;
  // Finalize the engine set — window, node span and het start inferred from
  // the records delivered so far, exactly as the batch `analyze` infers them.
  [[nodiscard]] core::AnalysisArtifacts Artifacts() const;
  [[nodiscard]] std::vector<Alert> DrainAlerts() { return alerts_.Drain(); }

  // Read-only views for aggregators (src/serve/ folds these into its rack
  // and fleet views via MergeFrom under the owner's lock — the monitor is
  // only ever the const operand of a merge).
  [[nodiscard]] const core::AnalysisEngineSet& Engines() const { return set_; }
  [[nodiscard]] const StreamingAlerts& AlertEngine() const { return alerts_; }
  [[nodiscard]] const MonitorConfig& Config() const { return config_; }

  // Engine-style checkpointing: reader cursors (TailReader::SaveState — a
  // file cursor, not an engine) followed by the engine set and the alert
  // engine through their uniform Snapshot/Restore.
  void Snapshot(binio::Writer& writer) const;
  // The one owner of a refused restore: it resets, lets each section decode
  // into fresh state, and resets again on a malformed payload (or, through
  // RestoreMonitorCheckpoint, one the checkpoint rule refuses).
  [[nodiscard]] bool Restore(binio::Reader& reader);

 private:
  // What a step can change in a reader that a report reads: the cursor, the
  // rotation count, first sight, abort and finish.
  template <typename Record>
  static auto Progress(const TailReader<Record>& reader) {
    return std::tuple(reader.Offset(), reader.Rotations(), reader.SeenFile(),
                      reader.Aborted(), reader.Finished());
  }
  // Run one Poll or Finish step, moving the stamp when either reader's
  // progress changed.
  template <typename Step>
  MonitorStatus Stamped(Step step);
  MonitorStatus PollStreams();
  MonitorStatus FinishStreams();
  void FlushPending();
  void Reset();
  [[nodiscard]] core::EngineSetConfig EngineConfig() const;

  core::DatasetPaths paths_;
  MonitorConfig config_;

  TailReader<logs::MemoryErrorRecord> memory_reader_;
  TailReader<logs::HetRecord> het_reader_;

  core::AnalysisEngineSet set_;
  StreamingAlerts alerts_;
  // Records collected by the poll sink, delivered to the engine set as one
  // batch at the end of the poll (stream/monitor.cpp FlushPending).  Always
  // empty between Poll/Finish calls, so it is never checkpointed.
  std::vector<logs::MemoryErrorRecord> pending_;
  std::uint64_t stamp_ = 0;
};

}  // namespace astra::stream
