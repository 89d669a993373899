#include "core/temporal.hpp"

#include <algorithm>

#include "stats/linear_fit.hpp"

namespace astra::core {

double MonthlyErrorSeries::TrendSlopePerMonth() const noexcept {
  std::vector<double> x, y;
  x.reserve(all_errors.size());
  y.reserve(all_errors.size());
  for (std::size_t m = 0; m < all_errors.size(); ++m) {
    x.push_back(static_cast<double>(m));
    y.push_back(static_cast<double>(all_errors[m]));
  }
  return stats::FitLine(x, y).slope;
}

void TemporalEngine::Observe(const logs::MemoryErrorRecord& record,
                             std::uint64_t /*seq*/) {
  if (record.type != logs::FailureType::kCorrectable) return;
  ++ce_by_month_[AbsoluteCalendarMonth(record.timestamp)];
}

void TemporalEngine::ObserveBatch(std::span<const logs::MemoryErrorRecord> batch,
                                  std::uint64_t /*first_seq*/) {
  // Error timestamps arrive nearly sorted, so almost every record lands in
  // the same calendar month as its predecessor: the cache turns the civil
  // date conversion into a range check, and the bucket memo turns the map
  // walk into a pointer bump.
  CalendarMonthCache cache;
  std::int64_t last_month = 0;
  std::uint64_t* bucket = nullptr;
  for (const auto& record : batch) {
    if (record.type != logs::FailureType::kCorrectable) continue;
    const std::int64_t month = cache.MonthOf(record.timestamp);
    if (bucket == nullptr || month != last_month) {
      bucket = &ce_by_month_[month];
      last_month = month;
    }
    ++*bucket;
  }
}

bool TemporalEngine::MergeFrom(const TemporalEngine& other) {
  if (&other == this) return false;
  for (const auto& [month, count] : other.ce_by_month_) {
    ce_by_month_[month] += count;
  }
  return true;
}

void TemporalEngine::Snapshot(binio::Writer& writer) const {
  writer.PutU64(ce_by_month_.size());
  for (const auto& [month, count] : ce_by_month_) {
    writer.PutI64(month);
    writer.PutU64(count);
  }
}

bool TemporalEngine::Restore(binio::Reader& reader) {
  const std::uint64_t count = reader.GetU64();
  if (!reader.CanReadItems(count, sizeof(std::int64_t) + sizeof(std::uint64_t))) {
    return false;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::int64_t month = reader.GetI64();
    ce_by_month_[month] = reader.GetU64();
  }
  return reader.Ok();
}

MonthCounts TemporalEngine::Months() const {
  return {ce_by_month_.begin(), ce_by_month_.end()};
}

MonthlyErrorSeries EmptyMonthlySeries(const SimTime origin, const int month_count) {
  MonthlyErrorSeries series;
  series.origin = origin;
  series.month_count = month_count;
  series.all_errors.assign(static_cast<std::size_t>(std::max(0, month_count)), 0);
  return series;
}

void AddMonths(MonthlyErrorSeries& series, const MonthCounts& months) {
  const std::int64_t origin_month = AbsoluteCalendarMonth(series.origin);
  for (const auto& [month, count] : months) {
    const std::int64_t index = month - origin_month;
    if (index >= 0 && index < series.month_count) {
      series.all_errors[static_cast<std::size_t>(index)] += count;
    }
  }
}

MonthlyErrorSeries BuildMonthlySeries(std::span<const logs::MemoryErrorRecord> records,
                                      SimTime origin, int month_count) {
  TemporalEngine engine;
  for (std::size_t i = 0; i < records.size(); ++i) engine.Observe(records[i], i);
  MonthlyErrorSeries series = EmptyMonthlySeries(origin, month_count);
  AddMonths(series, engine.Months());
  return series;
}

std::vector<std::uint64_t> DailyCounts(std::span<const SimTime> timestamps,
                                       TimeWindow window) {
  const auto days = static_cast<std::size_t>(
      std::max<std::int64_t>(1, (window.DurationSeconds() +
                                 SimTime::kSecondsPerDay - 1) /
                                    SimTime::kSecondsPerDay));
  std::vector<std::uint64_t> counts(days, 0);
  for (const SimTime t : timestamps) {
    if (!window.Contains(t)) continue;
    const auto day = static_cast<std::size_t>(
        SecondsBetween(window.begin, t) / SimTime::kSecondsPerDay);
    if (day < counts.size()) ++counts[day];
  }
  return counts;
}

}  // namespace astra::core
