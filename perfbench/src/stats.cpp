#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::optional<double> Median(std::vector<double> samples) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return (samples[mid - 1] + samples[mid]) / 2.0;
}

std::size_t MinSamplesFor(int percent) {
  // n * (100 - percent) / 100 >= 10, in integers.
  const int beyond = 100 - percent;
  return beyond <= 0 ? std::numeric_limits<std::size_t>::max()
                     : static_cast<std::size_t>((1000 + beyond - 1) / beyond);
}

std::optional<double> TailPercentile(std::vector<double> samples, int percent) {
  if (percent <= 0 || percent >= 100) return std::nullopt;
  if (samples.size() < MinSamplesFor(percent)) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest value with at least `percent`% at or below it.
  const std::size_t rank =
      (samples.size() * static_cast<std::size_t>(percent) + 99) / 100;
  const double value = samples[rank - 1];
  if (std::isinf(value)) return std::nullopt;
  return value;
}

}  // namespace perfbench
