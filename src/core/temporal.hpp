// Temporal series builders: the monthly error/fault-mode series of Fig. 4a
// and generic daily event counting used by Figs. 3 and 15.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/coalesce.hpp"
#include "logs/records.hpp"
#include "util/binio.hpp"
#include "util/sim_time.hpp"

namespace astra::core {

struct MonthlyErrorSeries {
  SimTime origin;   // month 0
  int month_count = 0;

  std::vector<std::uint64_t> all_errors;  // CE records per calendar month
  // Errors per month attributed to faults of each observed mode.
  std::array<std::vector<std::uint64_t>, faultsim::kObservedModeCount> by_mode;

  // OLS slope of monthly totals (per month): negative = the paper's
  // "slightly downward trend as time progresses" (§3.2).
  [[nodiscard]] double TrendSlopePerMonth() const noexcept;
};

// The temporal analyzer engine (contract in core/engine.hpp): bins CE
// records by ABSOLUTE calendar month so the campaign window need not be
// known during observation; Finalize remaps onto the origin-relative series
// and folds in the per-mode split carried by the coalesce fragment.
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

  // Deterministic byte layout (ordered map).  Restore leaves the engine
  // empty and returns false on a malformed payload.
  void Snapshot(binio::Writer& writer) const;
  [[nodiscard]] bool Restore(binio::Reader& reader);

  // Project onto the series shape; months outside [0, month_count) are
  // dropped.  `coalesced` supplies the per-mode monthly split and must have
  // been finalized with the same (origin, month_count).
  [[nodiscard]] MonthlyErrorSeries Finalize(const CoalesceResult& coalesced,
                                            SimTime origin, int month_count) const;

 private:
  std::map<std::int64_t, std::uint64_t> ce_by_month_;  // absolute month -> CEs
};

// `coalesced` must have been produced with month tracking enabled
// (CoalesceOptions::month_count > 0 and matching origin).
[[nodiscard]] MonthlyErrorSeries BuildMonthlySeries(
    std::span<const logs::MemoryErrorRecord> records, const CoalesceResult& coalesced,
    SimTime origin, int month_count);

// Daily counts over a window (day 0 = window.begin's date).
[[nodiscard]] std::vector<std::uint64_t> DailyCounts(std::span<const SimTime> timestamps,
                                                     TimeWindow window);

}  // namespace astra::core
