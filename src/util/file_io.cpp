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

bool WriteLines(const std::string& path, const std::vector<std::string>& lines) {
  std::string bytes;
  std::size_t total = 0;
  for (const auto& line : lines) total += line.size() + 1;
  bytes.reserve(total);
  for (const auto& line : lines) {
    bytes += line;
    bytes += '\n';
  }
  return io::Current().WriteFile(path, bytes);
}

std::optional<std::string> ReadFileBytes(const std::string& path) {
  return io::Current().ReadFile(path);
}

bool WriteFileBytes(const std::string& path, std::string_view bytes) {
  return io::Current().WriteFile(path, bytes);
}

}  // namespace astra
