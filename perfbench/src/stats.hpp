// Summary statistics for the benchmark's timings.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

namespace perfbench {

// A failed or refused operation ranks as infinitely slow.
inline constexpr double kFailedSample = std::numeric_limits<double>::infinity();

// Median of `samples` (mean of the middle two for an even count); nullopt
// when empty.
[[nodiscard]] std::optional<double> Median(std::vector<double> samples);

// The nearest-rank `percent` percentile, reported only when at least ten
// samples lie beyond it: p90 needs 100 samples, p50 needs 20.  Failures
// (kFailedSample) sort last, so they raise the percentile; nullopt when the
// sample is too small or the percentile itself lands on a failure.
[[nodiscard]] std::optional<double> TailPercentile(std::vector<double> samples,
                                                   int percent);

// Samples needed before TailPercentile reports `percent`.
[[nodiscard]] std::size_t MinSamplesFor(int percent);

}  // namespace perfbench
