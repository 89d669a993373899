#include "core/burstiness.hpp"

#include <algorithm>
#include <vector>

#include "stats/descriptive.hpp"

namespace astra::core {

BurstinessAnalysis AnalyzeBurstiness(std::span<const SimTime> timestamps,
                                     TimeWindow window, std::int64_t bucket_seconds) {
  BurstinessAnalysis analysis;
  if (bucket_seconds <= 0 || window.DurationSeconds() <= 0) return analysis;

  std::vector<std::int64_t> in_window;
  in_window.reserve(timestamps.size());
  for (const SimTime t : timestamps) {
    if (window.Contains(t)) in_window.push_back(t.Seconds());
  }
  std::sort(in_window.begin(), in_window.end());
  analysis.events = in_window.size();
  if (in_window.empty()) return analysis;

  // Fano factor over fixed windows.
  const auto buckets = static_cast<std::size_t>(
      (window.DurationSeconds() + bucket_seconds - 1) / bucket_seconds);
  std::vector<double> counts(buckets, 0.0);
  for (const std::int64_t s : in_window) {
    const auto bucket =
        static_cast<std::size_t>((s - window.begin.Seconds()) / bucket_seconds);
    if (bucket < buckets) counts[bucket] += 1.0;
  }
  analysis.windows = buckets;
  const stats::Summary count_summary = stats::Summarize(counts);
  analysis.mean_per_window = count_summary.mean;
  analysis.max_window_count = count_summary.max;
  if (count_summary.mean > 0.0) {
    analysis.fano_factor = count_summary.variance / count_summary.mean;
  }

  // CV^2 of inter-arrival times.
  if (in_window.size() >= 3) {
    std::vector<double> gaps;
    gaps.reserve(in_window.size() - 1);
    for (std::size_t i = 1; i < in_window.size(); ++i) {
      gaps.push_back(static_cast<double>(in_window[i] - in_window[i - 1]));
    }
    const stats::Summary gap_summary = stats::Summarize(gaps);
    if (gap_summary.mean > 0.0) {
      analysis.interarrival_cv2 =
          gap_summary.variance / (gap_summary.mean * gap_summary.mean);
    }
  }
  return analysis;
}

}  // namespace astra::core
