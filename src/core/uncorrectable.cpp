#include "core/uncorrectable.hpp"

#include "logs/serialize.hpp"
#include "stats/special.hpp"

#include <algorithm>
#include <optional>

namespace astra::core {

double FitFromAnnualRate(double events_per_device_year) noexcept {
  return events_per_device_year / kHoursPerYear * 1e9;
}

UncorrectableAnalysis AnalyzeUncorrectable(std::span<const logs::HetRecord> records,
                                           TimeWindow recording_window, int dimm_count,
                                           const DataQuality* quality) {
  UncorrectableAnalysis analysis;
  analysis.recording_window = recording_window;
  analysis.dimm_count = dimm_count;

  const auto days = static_cast<std::size_t>(std::max<std::int64_t>(
      1, (recording_window.DurationSeconds() + SimTime::kSecondsPerDay - 1) /
             SimTime::kSecondsPerDay));
  for (auto& series : analysis.daily_by_type) series.assign(days, 0);
  analysis.daily_non_recoverable.assign(days, 0);

  for (const auto& r : records) {
    if (r.timestamp < recording_window.begin) {
      ++analysis.events_before_recording;
      continue;
    }
    if (!recording_window.Contains(r.timestamp)) continue;
    ++analysis.total_het_events;
    const auto day = static_cast<std::size_t>(
        SecondsBetween(recording_window.begin, r.timestamp) / SimTime::kSecondsPerDay);
    if (day >= days) continue;
    ++analysis.daily_by_type[static_cast<std::size_t>(r.event)][day];
    if (logs::IsMemoryDueEvent(r.event)) {
      ++analysis.memory_due_events;
      if (r.severity == logs::HetSeverity::kNonRecoverable) {
        ++analysis.daily_non_recoverable[day];
      }
    }
  }

  const double years = recording_window.DurationDays() / 365.25;
  if (dimm_count > 0 && years > 0.0) {
    analysis.dues_per_dimm_per_year = static_cast<double>(analysis.memory_due_events) /
                                      static_cast<double>(dimm_count) / years;
    analysis.fit_per_dimm = FitFromAnnualRate(analysis.dues_per_dimm_per_year);
    const stats::PoissonRateInterval ci = stats::PoissonRateCi(
        analysis.memory_due_events, static_cast<double>(dimm_count) * years);
    analysis.fit_ci_lo = FitFromAnnualRate(ci.lo);
    analysis.fit_ci_hi = FitFromAnnualRate(ci.hi);
  }

  // --- graceful degradation -------------------------------------------------
  if (analysis.memory_due_events < kMinDueEventsForRate) {
    analysis.low_confidence = true;
    analysis.caveats.push_back(
        "FIT rate rests on " + std::to_string(analysis.memory_due_events) +
        " DUE event(s) (< " + std::to_string(kMinDueEventsForRate) +
        "): quote the Garwood interval, not the point estimate");
  }
  if (quality != nullptr && quality->Degraded()) {
    analysis.low_confidence =
        analysis.low_confidence || quality->stream_missing || quality->over_budget;
    const auto extra = quality->Caveats();
    analysis.caveats.insert(analysis.caveats.end(), extra.begin(), extra.end());
  }
  return analysis;
}

bool UncorrectableEngine::MergeFrom(const UncorrectableEngine& other) {
  if (&other == this) return false;
  records_.insert(records_.end(), other.records_.begin(), other.records_.end());
  return true;
}

void UncorrectableEngine::Snapshot(binio::Writer& writer) const {
  writer.PutU64(records_.size());
  for (const auto& record : records_) writer.PutString(logs::FormatRecord(record));
}

bool UncorrectableEngine::Restore(binio::Reader& reader) {
  records_.clear();
  const std::uint64_t count = reader.GetU64();
  bool ok = reader.CanReadItems(count, 8);
  std::string line;
  for (std::uint64_t i = 0; ok && i < count; ++i) {
    std::optional<logs::HetRecord> record;
    if (reader.GetString(line)) record = logs::ParseHet(line);
    ok = record.has_value();
    if (ok) records_.push_back(*record);
  }
  if (!ok || !reader.Ok()) {
    records_.clear();
    return false;
  }
  return true;
}

}  // namespace astra::core
