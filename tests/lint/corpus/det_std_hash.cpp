// astra-lint-test: path=src/logs/dedup.cpp expect=det-std-hash
#include <cstddef>
#include <functional>
#include <string_view>

namespace astra::logs {

std::size_t LineKey(std::string_view line) { return std::hash<std::string_view>{}(line); }

}  // namespace astra::logs
