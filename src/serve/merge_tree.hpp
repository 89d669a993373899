// The fleet-of-fleets reduction: each node's engine state is folded into a
// rack or fleet view while the node's owner holds its lock, node -> rack ->
// fleet, through the same MergeFrom contract the parallel batch driver uses
// (core/engine.hpp), then rendered through the shared core/report layer.
// Because merging is associative and every engine's state is a pure
// function of the observed multiset (plus per-DIMM sequence tie-breaks,
// which per-node streams preserve), the fleet report over N drained node
// streams is BYTE-IDENTICAL to `analyze` over the concatenation of their
// logs — the serve determinism suite pins this for 1, 4 and 36 streams and
// across checkpoint/restore.
#pragma once

#include <iosfwd>
#include <optional>
#include <span>

#include "core/engine.hpp"
#include "logs/ingest.hpp"
#include "stream/alerts.hpp"
#include "stream/monitor.hpp"

namespace astra::serve {

// One node monitor's report state, copied at a single instant, for callers
// that reduce outside the monitor's lock.  The daemon itself never copies:
// it folds each monitor straight into the view (MergedView::Fold).
struct NodeSample {
  core::AnalysisEngineSet engines;
  logs::IngestReport memory_report;
  logs::IngestReport het_report;
  bool memory_seen = false;
  bool het_seen = false;
  bool rejected = false;
};

// Copy `monitor`'s report state.  The caller holds whatever lock guards the
// monitor — the sample itself is immutable data afterwards.
[[nodiscard]] NodeSample SampleMonitor(const stream::StreamMonitor& monitor);

// A rack's or the fleet's reduced state.
struct MergedView {
  explicit MergedView(const core::EngineSetConfig& engine_config)
      : engines(engine_config) {}

  // Fold one node into the view: its engines through MergeFrom, both ingest
  // reports, and its seen/rejected flags.  Fold nodes in index order, the
  // view being the earlier operand — the same reduction discipline as the
  // parallel batch driver, so first-observation state (coalesce anchors)
  // matches a serial replay's.  The caller holds whatever lock guards the
  // monitor, for the duration of the call.  False, the view unchanged, on
  // an engine-config mismatch (MergeFrom refuses it); a view that missed a
  // node must not be rendered.
  [[nodiscard]] bool Fold(const stream::StreamMonitor& monitor);
  [[nodiscard]] bool Fold(const NodeSample& sample);

  core::AnalysisEngineSet engines;
  logs::IngestReport memory_report;
  logs::IngestReport het_report;
  bool any_memory_seen = false;
  bool any_het_seen = false;
  // Strict-policy rejection, evaluated per stream at the node (each node's
  // malformed budget is its own file's fraction, exactly like one `watch`
  // per directory); any rejected member stream rejects the merged view.
  bool rejected = false;

  [[nodiscard]] std::uint64_t Delivered() const { return engines.Delivered(); }
  // Merged het absence mirrors StreamMonitor::HetMissing: the memory side is
  // accepted and producing, but no member stream ever saw a het file.
  [[nodiscard]] bool HetMissing() const {
    return !rejected && any_memory_seen && !any_het_seen;
  }
  [[nodiscard]] core::DataQuality Quality() const;

 private:
  [[nodiscard]] bool FoldNode(const core::AnalysisEngineSet& node_engines,
                              const logs::IngestReport& node_memory_report,
                              const logs::IngestReport& node_het_report,
                              bool memory_seen, bool het_seen,
                              bool node_rejected);
};

// Fold `samples` in index order into one view.  `engine_config` must match
// the config the samples were observed under; nullopt on a mismatch.  The
// view carries no alert state, so `alert_config` is unused.
[[nodiscard]] std::optional<MergedView> MergeSamples(
    const core::EngineSetConfig& engine_config,
    const stream::AlertConfig& alert_config,
    std::span<const NodeSample> samples);

// Render exactly what `analyze` prints to stdout over the concatenation of
// the merged streams: ingest accounting first, then the empty-dataset or
// full analysis report (nothing more when the view stands rejected — the
// batch CLI's rejection note goes to stderr, not the report).
void RenderMergedReport(std::ostream& out, const logs::IngestPolicy& policy,
                        const MergedView& view);

}  // namespace astra::serve
