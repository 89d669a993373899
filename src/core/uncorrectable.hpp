// Uncorrectable error analysis (§3.5, Fig. 15): HET event series, the
// non-recoverable subset, and the DUE-rate / FIT arithmetic.
//
// FIT (Failures In Time) = failures per 10^9 device-hours.  The paper:
// "the average number of DUEs per DIMM per year is 0.00948, which yields a
// FIT per DIMM of approximately 1081."  (0.00948 / 8766 h * 1e9 = 1081.)
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/data_quality.hpp"
#include "logs/records.hpp"
#include "util/binio.hpp"
#include "util/sim_time.hpp"

namespace astra::core {

struct UncorrectableAnalysis {
  // Daily counts per HET event type over the recording window (Fig. 15a).
  std::array<std::vector<std::uint64_t>, logs::kHetEventTypeCount> daily_by_type;
  // Daily counts of NON-RECOVERABLE memory events (Fig. 15b).
  std::vector<std::uint64_t> daily_non_recoverable;

  TimeWindow recording_window;  // firmware start .. window end
  std::uint64_t total_het_events = 0;
  std::uint64_t memory_due_events = 0;   // uncorrectableECC + MCE
  std::uint64_t events_before_recording = 0;  // should be 0 on Astra

  int dimm_count = 0;
  double dues_per_dimm_per_year = 0.0;
  double fit_per_dimm = 0.0;
  // Exact (Garwood) 95% CI on the FIT estimate — essential honesty for a
  // rate derived from a handful of recorded events (§3.5's 0.00948/yr rests
  // on a ~22-day sample).
  double fit_ci_lo = 0.0;
  double fit_ci_hi = 0.0;

  // Graceful degradation: true when the FIT rate rests on fewer than
  // kMinDueEventsForRate events (or the HET stream was damaged/missing).
  bool low_confidence = false;
  std::vector<std::string> caveats;
};

// Hours per year used in FIT arithmetic (Julian year, as in the paper).
inline constexpr double kHoursPerYear = 8766.0;

[[nodiscard]] double FitFromAnnualRate(double events_per_device_year) noexcept;

// `recording_window`: the span over which the HET was actually recording
// (post-firmware-update).  `dimm_count`: DIMM population for the rate.
// `quality` (optional) carries ingest damage into the result's caveats.
[[nodiscard]] UncorrectableAnalysis AnalyzeUncorrectable(
    std::span<const logs::HetRecord> records, TimeWindow recording_window,
    int dimm_count, const DataQuality* quality = nullptr);

// The uncorrectable analyzer engine (contract in core/engine.hpp).  DUEs are
// rare, so the engine simply buffers the HET stream verbatim; the fleet step
// (core/engine.hpp) replays the buffered records through
// AnalyzeUncorrectable — the recording window (and hence the daily-series
// shape) is only known once observation ends.
class UncorrectableEngine {
 public:
  // Observes the HET stream, not the memory-error stream; daily binning is
  // order-insensitive, so the global sequence number is unused.
  void Observe(const logs::HetRecord& record, std::uint64_t /*seq*/) {
    records_.push_back(record);
  }

  // Appends the other engine's records, so the shard-index-order reduction
  // rebuilds the stream order.  False (state unchanged) only on self-merge.
  [[nodiscard]] bool MergeFrom(const UncorrectableEngine& other);

  // The record count, then each record in the canonical text format
  // (logs/serialize.hpp) — the codec the ingest machine's pending records
  // use in the same checkpoint.  Restore parses them back into a freshly
  // constructed engine and returns false on a malformed payload.
  void Snapshot(binio::Writer& writer) const;
  [[nodiscard]] bool Restore(binio::Reader& reader);

  // The engine's report fragment: the buffered records in observation
  // order.
  [[nodiscard]] const std::vector<logs::HetRecord>& Records() const {
    return records_;
  }

 private:
  std::vector<logs::HetRecord> records_;
};

}  // namespace astra::core
