#include "relabel.hpp"

#include <algorithm>
#include <numeric>
#include <random>

namespace perfbench {

std::vector<std::uint32_t> SizeClassRelabeling(
    const std::vector<std::size_t>& records_per_node, std::uint64_t seed,
    double spread) {
  const std::size_t n = records_per_node.size();
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return records_per_node[a] < records_per_node[b];
  });
  std::vector<std::uint32_t> label(n);
  std::mt19937_64 rng(seed);
  for (std::size_t begin = 0; begin < n;) {
    const double limit =
        static_cast<double>(records_per_node[order[begin]]) * (1.0 + spread);
    std::size_t end = begin + 1;
    while (end < n && static_cast<double>(records_per_node[order[end]]) <= limit) ++end;
    std::vector<std::uint32_t> labels(order.begin() + static_cast<std::ptrdiff_t>(begin),
                                      order.begin() + static_cast<std::ptrdiff_t>(end));
    std::shuffle(labels.begin(), labels.end(), rng);
    for (std::size_t i = begin; i < end; ++i) label[order[i]] = labels[i - begin];
    begin = end;
  }
  return label;
}

}  // namespace perfbench
