// Temperature / utilization correlation analyses (§3.3, Figs. 9, 13, 14).
//
// Three analyses, all consuming the CE record stream plus the environmental
// model (on real data, the same interfaces are served by the sensor files):
//
//  Fig. 9  — look-back fits: for each CE, the mean temperature of the
//            errored DIMM's sensor over the preceding 1 h / 1 d / 1 w / 1 mo
//            window; CE counts are binned by that mean temperature and a
//            line is fitted.  The paper's conclusion: slope ~ 0.
//
//  Fig. 13 — Schroeder-style deciles: (node, sensor, month) observations of
//            monthly-average temperature vs that month's CE count for the
//            components the sensor covers, reduced to deciles.
//
//  Fig. 14 — utilization deciles with a hot/cold split: same observations
//            keyed by monthly-average node POWER (the utilization proxy),
//            split by whether the sensor's monthly temperature is above or
//            below its median.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/data_quality.hpp"
#include "logs/records.hpp"
#include "sensors/environment.hpp"
#include "stats/deciles.hpp"
#include "stats/linear_fit.hpp"

namespace astra::core {

struct TemperatureAnalysisConfig {
  // Analysis window (§3.3 uses May 20 - Sep 19 2019, the span with
  // environmental data).
  TimeWindow window{SimTime::FromCivil(2019, 5, 20), SimTime::FromCivil(2019, 9, 14)};

  // Look-back durations for the Fig. 9 fits.
  std::vector<std::int64_t> lookback_seconds{
      SimTime::kSecondsPerHour, SimTime::kSecondsPerDay, SimTime::kSecondsPerWeek,
      30 * SimTime::kSecondsPerDay};

  // CE subsampling for the look-back analysis: at most this many CEs are
  // evaluated (deterministic stride); bin counts are scaled back up.
  std::size_t max_lookback_samples = 40'000;

  // Temperature bin width for the Fig. 9 scatter.
  double temp_bin_width_c = 0.5;

  // Integration resolution for window means.
  int mean_samples = 128;
};

// --- Fig. 9 -------------------------------------------------------------------

struct LookbackFit {
  std::int64_t lookback_seconds = 0;
  // Binned scatter: x = mean DIMM temperature before the CE, y = CE count.
  std::vector<double> temperature_bins;  // bin centers
  std::vector<double> ce_counts;         // scaled counts per bin
  stats::LinearFit fit;                  // line over the binned points
};

// --- Figs. 13 / 14 -------------------------------------------------------------

// One (node, sensor, month) observation.
struct MonthlyObservation {
  NodeId node = 0;
  SensorKind sensor = SensorKind::kCpu0Temp;
  int month = 0;                // index from window.begin
  double mean_temperature = 0.0;
  double mean_power = 0.0;      // node DC power over the month
  std::uint64_t ce_count = 0;   // CEs on the components this sensor covers
};

struct SensorDecileSeries {
  SensorKind sensor = SensorKind::kCpu0Temp;
  stats::DecileSeries by_temperature;                  // Fig. 13
  stats::DecileSeries by_power_hot;                    // Fig. 14, T > median
  stats::DecileSeries by_power_cold;                   // Fig. 14, T <= median
  double median_temperature = 0.0;
};

struct TemperatureAnalysis {
  std::vector<LookbackFit> lookback_fits;                       // Fig. 9
  std::array<SensorDecileSeries, kTempSensorsPerNode> deciles;  // Figs. 13-14
  std::vector<MonthlyObservation> observations;                 // raw pairs

  // The paper's bottom line: no look-back window shows a strong positive
  // correlation between temperature and CE rate.
  [[nodiscard]] bool AnyStrongPositiveCorrelation() const noexcept;

  // Graceful degradation: true when too few (node, sensor, month)
  // observations back the decile series for the correlation verdict to hold.
  bool low_sample = false;
  std::vector<std::string> caveats;
};

class TemperatureAnalyzer {
 public:
  TemperatureAnalyzer(const TemperatureAnalysisConfig& config,
                      const sensors::Environment* environment) noexcept
      : config_(config), environment_(environment) {}

  // `node_span`: number of node ids to cover in the decile analyses.
  // `quality` (optional) carries ingest damage into the result's caveats.
  [[nodiscard]] TemperatureAnalysis Analyze(
      std::span<const logs::MemoryErrorRecord> records, int node_span,
      const DataQuality* quality = nullptr) const;

 private:
  [[nodiscard]] LookbackFit AnalyzeLookback(
      std::span<const logs::MemoryErrorRecord> records,
      std::int64_t lookback_seconds) const;

  [[nodiscard]] std::vector<MonthlyObservation> CollectMonthlyObservations(
      std::span<const logs::MemoryErrorRecord> records, int node_span) const;

  TemperatureAnalysisConfig config_;
  const sensors::Environment* environment_;  // not owned
};

}  // namespace astra::core
