// The fleet-of-fleets reduction.  A served report is the fleet step
// (core/engine.hpp FinalizeFragments) over per-node fragments taken in node
// order, rendered through the shared core/report layer.  No fragment key
// crosses nodes, so concatenating fragments in node order yields the merged
// set's bytes by construction: the fleet report over N drained node streams
// is BYTE-IDENTICAL to `analyze` over the concatenation of their logs — the
// serve determinism suite pins this for 1, 4 and 36 streams and across
// checkpoint/restore.  The MergeFrom reduction (NodeSample, MergedView)
// remains for callers that copy node state and reduce it themselves; it
// renders through the same fleet step, as one fragment.
#pragma once

#include <iosfwd>
#include <optional>
#include <span>

#include "core/engine.hpp"
#include "logs/ingest.hpp"
#include "stream/alerts.hpp"
#include "stream/monitor.hpp"

namespace astra::serve {

// The ingest side of one node, or of a reduction over nodes: both reports
// and the seen/rejected flags.
struct IngestState {
  logs::IngestReport memory_report;
  logs::IngestReport het_report;
  bool memory_seen = false;
  bool het_seen = false;
  // Strict-policy rejection, evaluated per stream at the node (each node's
  // malformed budget is its own file's fraction, exactly like one `watch`
  // per directory); any rejected member stream rejects the reduction.
  bool rejected = false;

  // Fold the next node in node order: reports through IngestReport::Merge,
  // flags or-ed.
  void Merge(const IngestState& other);
  // Het absence mirrors StreamMonitor::HetMissing: the memory side is
  // accepted and producing, but no member stream ever saw a het file.
  [[nodiscard]] bool HetMissing() const {
    return !rejected && memory_seen && !het_seen;
  }
  [[nodiscard]] core::DataQuality Quality() const;
};

// One node's report state as of one monitor stamp (StreamMonitor::Stamp):
// its engine fragment and its ingest side.  Immutable once built; the daemon
// keeps one per node and rebuilds it only when the stamp moves.
struct NodeFragment {
  core::EngineFragment engines;
  IngestState ingest;
};

// Build `monitor`'s fragment.  The caller holds whatever lock guards the
// monitor.
[[nodiscard]] NodeFragment FragmentOf(const stream::StreamMonitor& monitor);

// Render exactly what `analyze` prints to stdout over the concatenation of
// the fragments' streams, taken in node order: ingest accounting first, then
// the empty-dataset or full analysis report (nothing more when a stream
// stands rejected — the batch CLI's rejection note goes to stderr, not the
// report).  `predictor` is the config every fragment was observed under.
void RenderFragments(std::ostream& out, const logs::IngestPolicy& policy,
                     const core::PredictorConfig& predictor,
                     std::span<const NodeFragment* const> fragments);

// One node monitor's report state, copied at a single instant, for callers
// that reduce outside the monitor's lock through MergeFrom.
struct NodeSample {
  core::AnalysisEngineSet engines;
  IngestState ingest;
};

// Copy `monitor`'s report state.  The caller holds whatever lock guards the
// monitor — the sample itself is immutable data afterwards.
[[nodiscard]] NodeSample SampleMonitor(const stream::StreamMonitor& monitor);

// A rack's or the fleet's state reduced through MergeFrom.
struct MergedView {
  explicit MergedView(const core::EngineSetConfig& engine_config)
      : engines(engine_config) {}

  // Fold one node into the view: its engines through MergeFrom and its
  // ingest side.  Fold nodes in index order, the view being the earlier
  // operand — the same reduction discipline as the parallel batch driver,
  // so first-observation state (coalesce anchors) matches a serial
  // replay's.  False, the view unchanged, on an engine-config mismatch
  // (MergeFrom refuses it); a view that missed a node must not be rendered.
  [[nodiscard]] bool Fold(const NodeSample& sample);

  core::AnalysisEngineSet engines;
  IngestState ingest;

  [[nodiscard]] std::uint64_t Delivered() const { return engines.Delivered(); }
  [[nodiscard]] core::DataQuality Quality() const { return ingest.Quality(); }
};

// Fold `samples` in index order into one view.  `engine_config` must match
// the config the samples were observed under; nullopt on a mismatch.  The
// view carries no alert state, so `alert_config` is unused.
[[nodiscard]] std::optional<MergedView> MergeSamples(
    const core::EngineSetConfig& engine_config,
    const stream::AlertConfig& alert_config,
    std::span<const NodeSample> samples);

// RenderFragments over the view as one fragment.
void RenderMergedReport(std::ostream& out, const logs::IngestPolicy& policy,
                        const MergedView& view);

}  // namespace astra::serve
