#include "core/temperature.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/parallel.hpp"

namespace astra::core {
namespace {

// Months covered by a window (partial months count).
int MonthSpan(TimeWindow window) {
  return CalendarMonthIndex(window.begin, window.end.AddSeconds(-1)) + 1;
}

// First instant of month `m` counted from `origin`'s month (clamped to the
// window in the caller).
SimTime MonthBegin(SimTime origin, int m) {
  const CivilDateTime c = origin.ToCivil();
  const int month0 = (c.date.year * 12) + (c.date.month - 1) + m;
  return SimTime::FromCivil(month0 / 12, month0 % 12 + 1, 1);
}

}  // namespace

bool TemperatureAnalysis::AnyStrongPositiveCorrelation() const noexcept {
  for (const LookbackFit& lookback : lookback_fits) {
    if (lookback.fit.slope > 0.0 && lookback.fit.IsStrongCorrelation()) return true;
  }
  return false;
}

LookbackFit TemperatureAnalyzer::AnalyzeLookback(
    std::span<const logs::MemoryErrorRecord> records,
    std::int64_t lookback_seconds) const {
  LookbackFit result;
  result.lookback_seconds = lookback_seconds;

  // Deterministic subsample of the CE stream.
  std::vector<std::size_t> eligible;
  eligible.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    if (r.type == logs::FailureType::kCorrectable &&
        config_.window.Contains(r.timestamp)) {
      eligible.push_back(i);
    }
  }
  const std::size_t stride =
      std::max<std::size_t>(1, eligible.size() / config_.max_lookback_samples);
  std::vector<std::size_t> sampled;
  for (std::size_t j = 0; j < eligible.size(); j += stride) {
    sampled.push_back(eligible[j]);
  }
  if (sampled.empty()) return result;

  // Mean DIMM-sensor temperature over the look-back window per sampled CE,
  // computed in parallel.
  std::vector<double> temps(sampled.size(), 0.0);
  const sensors::SensorField& field = environment_->Sensors();
  ParallelFor(sampled.size(), [&](std::size_t j) {
    const auto& r = records[sampled[j]];
    const SensorKind sensor = DimmSensorOfSlot(r.slot);
    const TimeWindow lookback{r.timestamp.AddSeconds(-lookback_seconds), r.timestamp};
    temps[j] = field.MeanOverWindow(r.node, sensor, lookback, config_.mean_samples);
  });

  // Bin.
  std::map<std::int64_t, std::uint64_t> bins;
  for (const double t : temps) {
    bins[static_cast<std::int64_t>(std::floor(t / config_.temp_bin_width_c))] += 1;
  }
  // Scale the sampled counts back up to the full CE population.
  const double rescale =
      static_cast<double>(eligible.size()) / static_cast<double>(sampled.size());
  for (const auto& [bin, count] : bins) {
    result.temperature_bins.push_back((static_cast<double>(bin) + 0.5) *
                                      config_.temp_bin_width_c);
    result.ce_counts.push_back(static_cast<double>(count) * rescale);
  }
  result.fit = stats::FitLine(result.temperature_bins, result.ce_counts);
  return result;
}

std::vector<MonthlyObservation> TemperatureAnalyzer::CollectMonthlyObservations(
    std::span<const logs::MemoryErrorRecord> records, int node_span) const {
  const int months = MonthSpan(config_.window);

  // CE counts per (node, sensor, month).  CPU sensors cover their socket's
  // 8 slots; DIMM sensors cover their 4 slots.
  std::vector<std::uint64_t> cpu_counts(
      static_cast<std::size_t>(node_span) * 2 * static_cast<std::size_t>(months), 0);
  std::vector<std::uint64_t> dimm_counts(
      static_cast<std::size_t>(node_span) * 4 * static_cast<std::size_t>(months), 0);

  for (const auto& r : records) {
    if (r.type != logs::FailureType::kCorrectable) continue;
    if (!config_.window.Contains(r.timestamp) || r.node >= node_span) continue;
    const int month = CalendarMonthIndex(config_.window.begin, r.timestamp);
    if (month < 0 || month >= months) continue;
    const auto node_ix = static_cast<std::size_t>(r.node);
    cpu_counts[(node_ix * 2 + static_cast<std::size_t>(r.socket)) *
                   static_cast<std::size_t>(months) +
               static_cast<std::size_t>(month)] += 1;
    const auto dimm_sensor = DimmSensorOfSlot(r.slot);
    const auto dimm_ix =
        static_cast<std::size_t>(static_cast<int>(dimm_sensor) -
                                 static_cast<int>(SensorKind::kDimmsACEG));
    dimm_counts[(node_ix * 4 + dimm_ix) * static_cast<std::size_t>(months) +
                static_cast<std::size_t>(month)] += 1;
  }

  // One observation per (node, temp sensor, month), environmental means
  // evaluated against the models.
  std::vector<MonthlyObservation> observations(
      static_cast<std::size_t>(node_span) * kTempSensorsPerNode *
      static_cast<std::size_t>(months));
  const sensors::SensorField& field = environment_->Sensors();
  const sensors::PowerModel& power = environment_->Power();

  ParallelFor(static_cast<std::size_t>(node_span), [&](std::size_t node_ix) {
    const auto node = static_cast<NodeId>(node_ix);
    for (int m = 0; m < months; ++m) {
      const TimeWindow month_window{
          std::max(MonthBegin(config_.window.begin, m), config_.window.begin),
          std::min(MonthBegin(config_.window.begin, m + 1), config_.window.end)};
      if (month_window.DurationSeconds() <= 0) continue;
      const double mean_power = power.MeanPower(node, month_window);
      for (int s = 0; s < kTempSensorsPerNode; ++s) {
        const auto sensor = static_cast<SensorKind>(s);
        MonthlyObservation obs;
        obs.node = node;
        obs.sensor = sensor;
        obs.month = m;
        obs.mean_temperature =
            field.MeanOverWindow(node, sensor, month_window, config_.mean_samples);
        obs.mean_power = mean_power;
        if (sensor == SensorKind::kCpu0Temp || sensor == SensorKind::kCpu1Temp) {
          obs.ce_count = cpu_counts[(node_ix * 2 + static_cast<std::size_t>(s)) *
                                        static_cast<std::size_t>(months) +
                                    static_cast<std::size_t>(m)];
        } else {
          const auto dimm_ix = static_cast<std::size_t>(
              s - static_cast<int>(SensorKind::kDimmsACEG));
          obs.ce_count = dimm_counts[(node_ix * 4 + dimm_ix) *
                                         static_cast<std::size_t>(months) +
                                     static_cast<std::size_t>(m)];
        }
        observations[(node_ix * kTempSensorsPerNode + static_cast<std::size_t>(s)) *
                         static_cast<std::size_t>(months) +
                     static_cast<std::size_t>(m)] = obs;
      }
    }
  });
  return observations;
}

TemperatureAnalysis TemperatureAnalyzer::Analyze(
    std::span<const logs::MemoryErrorRecord> records, int node_span,
    const DataQuality* quality) const {
  TemperatureAnalysis analysis;

  for (const std::int64_t lookback : config_.lookback_seconds) {
    analysis.lookback_fits.push_back(AnalyzeLookback(records, lookback));
  }

  analysis.observations = CollectMonthlyObservations(records, node_span);

  // Reduce to per-sensor decile series.
  for (int s = 0; s < kTempSensorsPerNode; ++s) {
    const auto sensor = static_cast<SensorKind>(s);
    std::vector<double> temperature, power_x, ces;
    for (const MonthlyObservation& obs : analysis.observations) {
      if (obs.sensor != sensor) continue;
      temperature.push_back(obs.mean_temperature);
      power_x.push_back(obs.mean_power);
      ces.push_back(static_cast<double>(obs.ce_count));
    }
    SensorDecileSeries& series = analysis.deciles[static_cast<std::size_t>(s)];
    series.sensor = sensor;
    series.by_temperature = stats::ComputeDecileSeries(temperature, ces);
    const stats::MedianSplit split = stats::SplitByMedian(temperature, power_x, ces);
    series.median_temperature = split.median_key;
    series.by_power_cold = stats::ComputeDecileSeries(split.low_x, split.low_y);
    series.by_power_hot = stats::ComputeDecileSeries(split.high_x, split.high_y);
  }

  // --- graceful degradation -------------------------------------------------
  if (analysis.observations.size() < kMinObservationsForDeciles) {
    analysis.low_sample = true;
    analysis.caveats.push_back(
        "only " + std::to_string(analysis.observations.size()) +
        " (node, sensor, month) observations (< " +
        std::to_string(kMinObservationsForDeciles) +
        "): decile series and correlation verdicts are unreliable");
  }
  if (quality != nullptr && quality->Degraded()) {
    const auto extra = quality->Caveats();
    analysis.caveats.insert(analysis.caveats.end(), extra.begin(), extra.end());
  }
  return analysis;
}

}  // namespace astra::core
