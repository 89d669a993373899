#include "serve/merge_tree.hpp"

#include <ostream>
#include <vector>

#include "core/report.hpp"

namespace astra::serve {

namespace {

IngestState IngestOf(const stream::StreamMonitor& monitor) {
  IngestState ingest;
  ingest.memory_report = monitor.MemoryReport();
  ingest.het_report = monitor.HetReport();
  ingest.memory_seen = monitor.MemorySeen();
  ingest.het_seen = monitor.HetSeen();
  ingest.rejected = monitor.Rejected();
  return ingest;
}

}  // namespace

void IngestState::Merge(const IngestState& other) {
  memory_report.Merge(other.memory_report);
  het_report.Merge(other.het_report);
  memory_seen = memory_seen || other.memory_seen;
  het_seen = het_seen || other.het_seen;
  rejected = rejected || other.rejected;
}

core::DataQuality IngestState::Quality() const {
  auto quality = core::DataQuality::FromReport(memory_report);
  if (HetMissing()) {
    quality.stream_missing = true;
  } else if (het_seen) {
    quality.Merge(core::DataQuality::FromReport(het_report));
  }
  return quality;
}

NodeFragment FragmentOf(const stream::StreamMonitor& monitor) {
  return NodeFragment{monitor.Engines().Fragment(), IngestOf(monitor)};
}

void RenderFragments(std::ostream& out, const logs::IngestPolicy& policy,
                     const core::PredictorConfig& predictor,
                     std::span<const NodeFragment* const> fragments) {
  IngestState ingest;
  std::uint64_t delivered = 0;
  std::vector<const core::EngineFragment*> engines;
  engines.reserve(fragments.size());
  for (const NodeFragment* fragment : fragments) {
    ingest.Merge(fragment->ingest);
    delivered += fragment->engines.delivered;
    engines.push_back(&fragment->engines);
  }
  core::RenderIngestReport(out, policy, ingest.memory_report,
                           ingest.HetMissing() ? nullptr : &ingest.het_report);
  if (ingest.rejected) return;  // analyze stops after the accounting (exit 3)
  const core::DataQuality quality = ingest.Quality();
  if (delivered == 0) {
    core::RenderEmptyDatasetReport(out, quality);
    return;
  }
  core::RenderAnalysisReport(
      out, core::FinalizeFragments(engines, core::InferContext(engines),
                                   predictor, &quality));
}

NodeSample SampleMonitor(const stream::StreamMonitor& monitor) {
  return NodeSample{monitor.Engines(), IngestOf(monitor)};
}

bool MergedView::Fold(const NodeSample& sample) {
  if (!engines.MergeFrom(sample.engines)) return false;
  ingest.Merge(sample.ingest);
  return true;
}

std::optional<MergedView> MergeSamples(
    const core::EngineSetConfig& engine_config,
    const stream::AlertConfig& /*alert_config*/,
    std::span<const NodeSample> samples) {
  MergedView view{engine_config};
  for (const NodeSample& sample : samples) {
    if (!view.Fold(sample)) return std::nullopt;
  }
  return view;
}

void RenderMergedReport(std::ostream& out, const logs::IngestPolicy& policy,
                        const MergedView& view) {
  const NodeFragment fragment{view.engines.Fragment(), view.ingest};
  const NodeFragment* const one[] = {&fragment};
  RenderFragments(out, policy, view.engines.Config().predictor, one);
}

}  // namespace astra::serve
