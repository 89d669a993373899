#include "serve/merge_tree.hpp"

#include <ostream>

#include "core/report.hpp"

namespace astra::serve {

NodeSample SampleMonitor(const stream::StreamMonitor& monitor) {
  NodeSample sample;
  sample.engines = monitor.Engines();
  sample.memory_report = monitor.MemoryReport();
  sample.het_report = monitor.HetReport();
  sample.memory_seen = monitor.MemorySeen();
  sample.het_seen = monitor.HetSeen();
  sample.rejected = monitor.Rejected();
  return sample;
}

bool MergedView::Fold(const stream::StreamMonitor& monitor) {
  return FoldNode(monitor.Engines(), monitor.MemoryReport(),
                  monitor.HetReport(), monitor.MemorySeen(), monitor.HetSeen(),
                  monitor.Rejected());
}

bool MergedView::Fold(const NodeSample& sample) {
  return FoldNode(sample.engines, sample.memory_report, sample.het_report,
                  sample.memory_seen, sample.het_seen, sample.rejected);
}

bool MergedView::FoldNode(const core::AnalysisEngineSet& node_engines,
                          const logs::IngestReport& node_memory_report,
                          const logs::IngestReport& node_het_report,
                          bool memory_seen, bool het_seen, bool node_rejected) {
  if (!engines.MergeFrom(node_engines)) return false;
  memory_report.Merge(node_memory_report);
  het_report.Merge(node_het_report);
  any_memory_seen = any_memory_seen || memory_seen;
  any_het_seen = any_het_seen || het_seen;
  rejected = rejected || node_rejected;
  return true;
}

core::DataQuality MergedView::Quality() const {
  auto quality = core::DataQuality::FromReport(memory_report);
  if (HetMissing()) {
    quality.stream_missing = true;
  } else if (any_het_seen) {
    quality.Merge(core::DataQuality::FromReport(het_report));
  }
  return quality;
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
  core::RenderIngestReport(out, policy, view.memory_report,
                           view.HetMissing() ? nullptr : &view.het_report);
  if (view.rejected) return;  // analyze stops after the accounting (exit 3)
  if (view.Delivered() == 0) {
    core::RenderEmptyDatasetReport(out, view.Quality());
    return;
  }
  const core::DataQuality quality = view.Quality();
  core::RenderAnalysisReport(
      out, view.engines.Finalize(view.engines.InferredContext(), &quality));
}

}  // namespace astra::serve
