#include "util/file_io.hpp"

#include "util/io_faults.hpp"
#include "util/mapped_file.hpp"

namespace astra {

std::optional<std::vector<std::string>> ReadLines(const std::string& path) {
  const auto file = io::Current().MapFile(path);
  if (!file) return std::nullopt;
  std::vector<std::string> lines;
  ForEachLineInView(file->Bytes(), [&lines](std::string_view line) {
    lines.emplace_back(line);
    return true;
  });
  return lines;
}

std::optional<std::string> ReadFileBytes(const std::string& path) {
  return io::Current().ReadFile(path);
}

bool WriteFileBytes(const std::string& path, std::string_view bytes) {
  return io::Current().WriteFile(path, bytes);
}

}  // namespace astra
