// Temporal series builders: the monthly CE series of Fig. 4a and generic
// daily event counting used by Figs. 3 and 15.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "logs/records.hpp"
#include "util/binio.hpp"
#include "util/sim_time.hpp"

namespace astra::core {

struct MonthlyErrorSeries {
  SimTime origin;   // month 0
  int month_count = 0;

  std::vector<std::uint64_t> all_errors;  // CE records per calendar month

  // OLS slope of monthly totals (per month): negative = the paper's
  // "slightly downward trend as time progresses" (§3.2).
  [[nodiscard]] double TrendSlopePerMonth() const noexcept;
};

// CEs per ABSOLUTE calendar month, ascending by month.
using MonthCounts = std::vector<std::pair<std::int64_t, std::uint64_t>>;

// The temporal analyzer engine (contract in core/engine.hpp), the only code
// that bins CEs by month.  Bins are ABSOLUTE calendar months so the campaign
// window need not be known during observation; AddMonths remaps them onto the
// origin-relative series at finalize time.
class TemporalEngine {
 public:
  // Binning is order-insensitive; the global sequence number is unused.
  void Observe(const logs::MemoryErrorRecord& record, std::uint64_t /*seq*/);

  // Batched observation (core/engine.hpp): identical state to calling
  // Observe per record.  The batch walk memoizes the calendar-month range,
  // so consecutive same-month timestamps skip the civil-date conversion.
  void ObserveBatch(std::span<const logs::MemoryErrorRecord> batch,
                    std::uint64_t first_seq);

  // Month counts add; the engine carries no configuration, so the merge
  // always succeeds (status return = the uniform engine contract).
  [[nodiscard]] bool MergeFrom(const TemporalEngine& other);

  // Deterministic byte layout (ordered map).  Restore decodes into a freshly
  // constructed engine and returns false on a malformed payload.
  void Snapshot(binio::Writer& writer) const;
  [[nodiscard]] bool Restore(binio::Reader& reader);

  // The engine's report fragment: its month counts.
  [[nodiscard]] MonthCounts Months() const;

 private:
  std::map<std::int64_t, std::uint64_t> ce_by_month_;  // absolute month -> CEs
};

// A zero series of `month_count` calendar months from `origin`'s month.
[[nodiscard]] MonthlyErrorSeries EmptyMonthlySeries(SimTime origin, int month_count);

// Add `months` onto the series; months outside [0, month_count) are dropped.
// Counts add, so adding several engines' months sums them.
void AddMonths(MonthlyErrorSeries& series, const MonthCounts& months);

// One-shot form: a TemporalEngine fed `records`, projected onto this shape.
[[nodiscard]] MonthlyErrorSeries BuildMonthlySeries(
    std::span<const logs::MemoryErrorRecord> records, SimTime origin,
    int month_count);

// Daily counts over a window (day 0 = window.begin's date).
[[nodiscard]] std::vector<std::uint64_t> DailyCounts(std::span<const SimTime> timestamps,
                                                     TimeWindow window);

}  // namespace astra::core
