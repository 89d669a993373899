// Text (de)serialization of dataset records.  The on-disk format is
// tab-separated with one header line per file, following the §2.4 release
// ("text files containing both the memory failure telemetry ... and the
// environmental sensor data").  Parsers are strict per field but resilient
// per line: a malformed line yields nullopt and is counted by the caller,
// never aborting the whole ingest — real syslog extracts contain garbage.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "logs/records.hpp"

namespace astra::logs {

// Column headers, also used to sanity-check files on ingest.
[[nodiscard]] std::string_view MemoryErrorHeader() noexcept;
[[nodiscard]] std::string_view SensorHeader() noexcept;
[[nodiscard]] std::string_view HetHeader() noexcept;
[[nodiscard]] std::string_view InventoryHeader() noexcept;

[[nodiscard]] std::string FormatRecord(const MemoryErrorRecord& record);
[[nodiscard]] std::string FormatRecord(const SensorRecord& record);
[[nodiscard]] std::string FormatRecord(const HetRecord& record);
[[nodiscard]] std::string FormatRecord(const InventoryRecord& record);

// Columns per record type, in header order.
inline constexpr std::size_t kMemoryErrorFieldCount = 11;
inline constexpr std::size_t kSensorFieldCount = 4;
inline constexpr std::size_t kHetFieldCount = 6;
inline constexpr std::size_t kInventoryFieldCount = 5;

// One record from its fields, already split and in header order; each
// field is validated as it is converted and the first bad one rejects the
// record.  The ingest machine splits a line once and hands the views here.
[[nodiscard]] std::optional<MemoryErrorRecord> ParseMemoryErrorFields(
    std::span<const std::string_view, kMemoryErrorFieldCount> fields);
[[nodiscard]] std::optional<SensorRecord> ParseSensorFields(
    std::span<const std::string_view, kSensorFieldCount> fields);
[[nodiscard]] std::optional<HetRecord> ParseHetFields(
    std::span<const std::string_view, kHetFieldCount> fields);
[[nodiscard]] std::optional<InventoryRecord> ParseInventoryFields(
    std::span<const std::string_view, kInventoryFieldCount> fields);

// One record from one line: a split into exactly the type's field count
// (util/strings.hpp ScanFields, no allocation), then the field parser.
[[nodiscard]] std::optional<MemoryErrorRecord> ParseMemoryError(std::string_view line);
[[nodiscard]] std::optional<SensorRecord> ParseSensor(std::string_view line);
[[nodiscard]] std::optional<HetRecord> ParseHet(std::string_view line);
[[nodiscard]] std::optional<InventoryRecord> ParseInventory(std::string_view line);

// Ingest bookkeeping shared by the file readers.
struct ParseStats {
  std::size_t total_lines = 0;      // data lines seen (header excluded)
  std::size_t parsed = 0;
  std::size_t malformed = 0;

  [[nodiscard]] double MalformedFraction() const noexcept {
    return total_lines == 0
               ? 0.0
               : static_cast<double>(malformed) / static_cast<double>(total_lines);
  }
};

}  // namespace astra::logs
