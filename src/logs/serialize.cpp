#include "logs/serialize.hpp"

#include <array>
#include <charconv>

#include "util/strings.hpp"

namespace astra::logs {
namespace {

constexpr char kSep = '\t';

// Field written for absent row information.
constexpr std::string_view kMissingField = "-";

// FormatRecord dominates dataset dump time; std::to_chars writes digits
// straight into a stack buffer instead of allocating (std::to_string) or
// re-parsing a format string (snprintf) per field.
template <typename Int>
void AppendInt(std::string& out, Int value) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, result.ptr);
}

// Zero-padded lowercase hex, optionally "0x"-prefixed (snprintf "0x%0*llx").
void AppendHex(std::string& out, std::uint64_t value, int width, bool prefix) {
  char buf[16];
  const auto result = std::to_chars(buf, buf + sizeof buf, value, 16);
  if (prefix) out += "0x";
  for (auto digits = static_cast<int>(result.ptr - buf); digits < width; ++digits) {
    out += '0';
  }
  out.append(buf, result.ptr);
}

std::optional<SimTime> ParseTimestampField(std::string_view field) {
  SimTime t;
  if (!SimTime::Parse(field, t)) return std::nullopt;
  return t;
}

std::optional<NodeId> ParseNodeField(std::string_view field) {
  const auto value = ParseDecimalI64(field);
  if (!value || *value < 0 || *value >= kNumNodes) return std::nullopt;
  return static_cast<NodeId>(*value);
}

// Split `line` into exactly N fields and parse them: a line with any other
// field count is rejected without a heap allocation or a scan past the
// surplus field (util/strings.hpp ScanFields).
template <std::size_t N, typename Parse>
auto ParseSplit(std::string_view line, Parse parse) {
  std::array<std::string_view, N> fields;
  using Result = decltype(parse(std::span<const std::string_view, N>(fields)));
  if (ScanFields(line, kSep, fields.data(), N) != N) return Result{};
  return parse(std::span<const std::string_view, N>(fields));
}

}  // namespace

std::string_view MemoryErrorHeader() noexcept {
  return "timestamp\tnode\tsocket\ttype\tslot\trow\trank\tbank\tbit\tphysaddr\tsyndrome";
}

std::string_view SensorHeader() noexcept { return "timestamp\tnode\tsensor\tvalue"; }

std::string_view HetHeader() noexcept {
  return "timestamp\tnode\tevent\tseverity\tsocket\tslot";
}

std::string_view InventoryHeader() noexcept {
  return "scan_date\tcomponent\tnode\tindex\tserial";
}

std::string FormatRecord(const MemoryErrorRecord& r) {
  std::string out = r.timestamp.ToString();
  out.reserve(out.size() + 64);
  out += kSep;
  AppendInt(out, r.node);
  out += kSep;
  AppendInt(out, static_cast<int>(r.socket));
  out += kSep;
  out += FailureTypeName(r.type);
  out += kSep;
  out += DimmSlotLetter(r.slot);
  out += kSep;
  if (r.row == kNoRowInfo) {
    out += kMissingField;
  } else {
    AppendInt(out, r.row);
  }
  out += kSep;
  AppendInt(out, static_cast<int>(r.rank));
  out += kSep;
  AppendInt(out, static_cast<int>(r.bank));
  out += kSep;
  AppendInt(out, r.bit_position);
  out += kSep;
  AppendHex(out, r.physical_address, 10, /*prefix=*/true);
  out += kSep;
  AppendHex(out, r.syndrome, 8, /*prefix=*/true);
  return out;
}

std::optional<MemoryErrorRecord> ParseMemoryErrorFields(
    std::span<const std::string_view, kMemoryErrorFieldCount> fields) {
  MemoryErrorRecord r;
  const auto ts = ParseTimestampField(fields[0]);
  const auto node = ParseNodeField(fields[1]);
  const auto socket = ParseDecimalI64(fields[2]);
  const auto type = FailureTypeFromName(fields[3]);
  if (!ts || !node || !socket || !type) return std::nullopt;
  if (*socket < 0 || *socket >= kSocketsPerNode) return std::nullopt;
  if (fields[4].size() != 1) return std::nullopt;
  const auto slot = DimmSlotFromLetter(fields[4][0]);
  if (!slot || SocketOfSlot(*slot) != *socket) return std::nullopt;

  r.timestamp = *ts;
  r.node = *node;
  r.socket = static_cast<SocketId>(*socket);
  r.type = *type;
  r.slot = *slot;

  if (fields[5] == kMissingField) {
    r.row = kNoRowInfo;
  } else {
    const auto row = ParseDecimalI64(fields[5]);
    if (!row || *row < 0 || *row >= kRowsPerBank) return std::nullopt;
    r.row = static_cast<std::int32_t>(*row);
  }

  const auto rank = ParseDecimalI64(fields[6]);
  const auto bank = ParseDecimalI64(fields[7]);
  const auto bit = ParseDecimalI64(fields[8]);
  const auto addr = ParseHexU64(fields[9]);
  const auto syndrome = ParseHexU64(fields[10]);
  if (!rank || !bank || !bit || !addr || !syndrome) return std::nullopt;
  if (*rank < 0 || *rank >= kRanksPerDimm) return std::nullopt;
  if (*bank < 0 || *bank >= kBanksPerRank) return std::nullopt;
  if (*bit < 0 || *bit > 0x3FF) return std::nullopt;

  r.rank = static_cast<RankId>(*rank);
  r.bank = static_cast<BankId>(*bank);
  r.bit_position = static_cast<std::int32_t>(*bit);
  r.physical_address = *addr;
  r.syndrome = static_cast<std::uint32_t>(*syndrome);
  return r;
}

std::optional<MemoryErrorRecord> ParseMemoryError(std::string_view line) {
  return ParseSplit<kMemoryErrorFieldCount>(line, ParseMemoryErrorFields);
}

std::string FormatRecord(const SensorRecord& r) {
  std::string out = r.timestamp.ToString();
  out += kSep;
  AppendInt(out, r.node);
  out += kSep;
  out += SensorKindName(r.sensor);
  out += kSep;
  out += r.valid ? FormatDouble(r.value, 2) : std::string("NA");
  return out;
}

std::optional<SensorRecord> ParseSensorFields(
    std::span<const std::string_view, kSensorFieldCount> fields) {
  SensorRecord r;
  const auto ts = ParseTimestampField(fields[0]);
  const auto node = ParseNodeField(fields[1]);
  const auto kind = SensorKindFromName(fields[2]);
  if (!ts || !node || !kind) return std::nullopt;
  r.timestamp = *ts;
  r.node = *node;
  r.sensor = *kind;
  if (fields[3] == "NA") {
    r.valid = false;
    r.value = 0.0;
    return r;
  }
  const auto value = ParseDouble(fields[3]);
  if (!value) return std::nullopt;
  r.valid = true;
  r.value = *value;
  return r;
}

std::optional<SensorRecord> ParseSensor(std::string_view line) {
  return ParseSplit<kSensorFieldCount>(line, ParseSensorFields);
}

std::string FormatRecord(const HetRecord& r) {
  std::string out = r.timestamp.ToString();
  out += kSep;
  AppendInt(out, r.node);
  out += kSep;
  out += HetEventTypeName(r.event);
  out += kSep;
  out += HetSeverityName(r.severity);
  out += kSep;
  AppendInt(out, static_cast<int>(r.socket));
  out += kSep;
  AppendInt(out, static_cast<int>(r.slot));
  return out;
}

std::optional<HetRecord> ParseHetFields(
    std::span<const std::string_view, kHetFieldCount> fields) {
  HetRecord r;
  const auto ts = ParseTimestampField(fields[0]);
  const auto node = ParseNodeField(fields[1]);
  const auto event = HetEventTypeFromName(fields[2]);
  const auto severity = HetSeverityFromName(fields[3]);
  const auto socket = ParseDecimalI64(fields[4]);
  const auto slot = ParseDecimalI64(fields[5]);
  if (!ts || !node || !event || !severity || !socket || !slot) return std::nullopt;
  if (*socket < -1 || *socket >= kSocketsPerNode) return std::nullopt;
  if (*slot < -1 || *slot >= kDimmSlotCount) return std::nullopt;
  r.timestamp = *ts;
  r.node = *node;
  r.event = *event;
  r.severity = *severity;
  r.socket = static_cast<std::int8_t>(*socket);
  r.slot = static_cast<std::int8_t>(*slot);
  return r;
}

std::optional<HetRecord> ParseHet(std::string_view line) {
  return ParseSplit<kHetFieldCount>(line, ParseHetFields);
}

std::string FormatRecord(const InventoryRecord& r) {
  std::string out = r.scan_date.ToDateString();
  out += kSep;
  out += ComponentKindName(r.site.kind);
  out += kSep;
  AppendInt(out, r.site.node);
  out += kSep;
  AppendInt(out, static_cast<int>(r.site.index));
  out += kSep;
  AppendHex(out, r.serial, 16, /*prefix=*/false);
  return out;
}

std::optional<InventoryRecord> ParseInventoryFields(
    std::span<const std::string_view, kInventoryFieldCount> fields) {
  InventoryRecord r;
  const auto ts = ParseTimestampField(fields[0]);
  const auto kind = ComponentKindFromName(fields[1]);
  const auto node = ParseNodeField(fields[2]);
  const auto index = ParseDecimalI64(fields[3]);
  const auto serial = ParseHexU64(fields[4]);
  if (!ts || !kind || !node || !index || !serial) return std::nullopt;
  if (*index < 0 || *index >= kDimmSlotCount) return std::nullopt;
  r.scan_date = *ts;
  r.site.kind = *kind;
  r.site.node = *node;
  r.site.index = static_cast<std::int8_t>(*index);
  r.serial = *serial;
  return r;
}

std::optional<InventoryRecord> ParseInventory(std::string_view line) {
  return ParseSplit<kInventoryFieldCount>(line, ParseInventoryFields);
}

}  // namespace astra::logs
