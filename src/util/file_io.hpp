// Line-oriented file helpers for the dataset readers/writers.
//
// Every helper routes through the injectable io::Io seam (util/io_faults.hpp),
// so chaos tests can subject any consumer of these functions to seeded
// environmental failure without touching the call sites.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace astra {

// Read all lines of a text file.  Returns nullopt if the file cannot be
// opened.  Trailing '\r' (CRLF datasets) is stripped from each line.
[[nodiscard]] std::optional<std::vector<std::string>> ReadLines(
    const std::string& path);

// Write lines (each suffixed with '\n'); returns false on I/O failure.
[[nodiscard]] bool WriteLines(const std::string& path,
                              const std::vector<std::string>& lines);

// Raw byte-level file access, for tools that must produce or inspect files
// that are NOT well-formed line-oriented text (e.g. the telemetry corruption
// injector's tail-chopped files, whose final line has no terminator).
[[nodiscard]] std::optional<std::string> ReadFileBytes(const std::string& path);
[[nodiscard]] bool WriteFileBytes(const std::string& path, std::string_view bytes);

}  // namespace astra
