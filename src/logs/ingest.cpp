#include "logs/ingest.hpp"

#include <algorithm>
#include <cctype>

#include "util/strings.hpp"

namespace astra::logs {
namespace {

std::string Lowered(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

struct ColumnAlias {
  std::string_view alias;
  std::string_view canonical;
};

// The drift vocabulary: names real collector versions have used for the
// canonical §2.4 columns.  Kept deliberately small and unambiguous (each
// alias maps to exactly one canonical name across all four schemas).
constexpr ColumnAlias kColumnAliases[] = {
    {"ts", "timestamp"},          {"time", "timestamp"},
    {"event_time", "timestamp"},  {"datetime", "timestamp"},
    {"node_id", "node"},          {"nodeid", "node"},
    {"host", "node"},             {"skt", "socket"},
    {"cpu_socket", "socket"},     {"failure_type", "type"},
    {"err_type", "type"},         {"dimm_slot", "slot"},
    {"dimm", "slot"},             {"row_id", "row"},
    {"rank_id", "rank"},          {"bank_id", "bank"},
    {"bit_pos", "bit"},           {"bitposition", "bit"},
    {"addr", "physaddr"},         {"address", "physaddr"},
    {"phys_addr", "physaddr"},    {"synd", "syndrome"},
    {"sensor_name", "sensor"},    {"channel", "sensor"},
    {"reading", "value"},         {"val", "value"},
    {"event_type", "event"},      {"sev", "severity"},
    {"date", "scan_date"},        {"scandate", "scan_date"},
    {"component_kind", "component"}, {"part", "component"},
    {"slot_index", "index"},      {"site_index", "index"},
    {"serial_no", "serial"},      {"sn", "serial"},
};

// A repair line derived from one counter: prefix, count, suffix.
struct CounterRepair {
  std::string_view prefix;
  std::string_view suffix;
};
constexpr CounterRepair kDroppedRepair{"dropped ", " exact duplicate record(s)"};
constexpr CounterRepair kResortedRepair{
    "re-sorted ", " out-of-order record(s) within the reorder window"};

void AppendCounterRepair(std::vector<std::string>& repairs, const CounterRepair& form,
                         std::size_t count) {
  if (count == 0) return;
  repairs.push_back(std::string(form.prefix) + std::to_string(count) +
                    std::string(form.suffix));
}

// The count `line` carries when it has `form`'s shape.
std::optional<std::uint64_t> CounterIn(const CounterRepair& form, std::string_view line) {
  if (line.size() <= form.prefix.size() + form.suffix.size() ||
      !StartsWith(line, form.prefix) ||
      line.substr(line.size() - form.suffix.size()) != form.suffix) {
    return std::nullopt;
  }
  return ParseUint64(line.substr(
      form.prefix.size(), line.size() - form.prefix.size() - form.suffix.size()));
}

}  // namespace

std::string_view MalformedReasonName(MalformedReason reason) noexcept {
  switch (reason) {
    case MalformedReason::kFieldCount: return "field-count";
    case MalformedReason::kBadTimestamp: return "timestamp";
    case MalformedReason::kBadFieldValue: return "field-value";
  }
  return "unknown";
}

void IngestReport::LogCounterRepairs() {
  AppendCounterRepair(repairs, kDroppedRepair, duplicates_removed);
  AppendCounterRepair(repairs, kResortedRepair, reordered);
}

void IngestReport::Merge(const IngestReport& other) {
  stats.total_lines += other.stats.total_lines;
  stats.parsed += other.stats.parsed;
  stats.malformed += other.stats.malformed;
  for (int i = 0; i < kMalformedReasonCount; ++i) {
    malformed_by_reason[static_cast<std::size_t>(i)] +=
        other.malformed_by_reason[static_cast<std::size_t>(i)];
  }
  duplicates_removed += other.duplicates_removed;
  out_of_order_seen += other.out_of_order_seen;
  reordered += other.reordered;
  order_violations += other.order_violations;
  header_remapped = header_remapped || other.header_remapped;
  budget_exceeded = budget_exceeded || other.budget_exceeded;
  aborted = aborted || other.aborted;

  std::vector<std::string> merged;
  std::uint64_t dropped = 0;
  std::uint64_t resorted = 0;
  const std::vector<std::string>* logs[] = {&repairs, &other.repairs};
  for (const auto* log : logs) {
    for (const std::string& line : *log) {
      if (const auto n = CounterIn(kDroppedRepair, line)) {
        dropped += *n;
      } else if (const auto m = CounterIn(kResortedRepair, line)) {
        resorted += *m;
      } else {
        merged.push_back(line);
      }
    }
  }
  AppendCounterRepair(merged, kDroppedRepair, dropped);
  AppendCounterRepair(merged, kResortedRepair, resorted);
  repairs = std::move(merged);
}

std::optional<std::string_view> CanonicalColumnName(std::string_view name) noexcept {
  for (const auto& entry : kColumnAliases) {
    if (entry.alias == name) return entry.canonical;
  }
  return std::nullopt;
}

std::vector<std::string_view> ColumnAliases(std::string_view canonical) {
  std::vector<std::string_view> aliases;
  for (const auto& entry : kColumnAliases) {
    if (entry.canonical == canonical) aliases.push_back(entry.alias);
  }
  return aliases;
}

std::optional<HeaderMap> HeaderMap::Build(std::string_view canonical,
                                          std::string_view file_header) {
  const auto canonical_names = SplitView(canonical, '\t');
  const auto file_names = SplitView(file_header, '\t');
  if (file_names.size() < canonical_names.size() ||
      file_names.size() > kMaxFileFields) {
    return std::nullopt;
  }

  // Resolve each file column to a canonical name (case-insensitive direct
  // match first, then the alias table).
  std::vector<std::string> resolved(file_names.size());
  for (std::size_t i = 0; i < file_names.size(); ++i) {
    const std::string lowered = Lowered(TrimView(file_names[i]));
    resolved[i] = lowered;
    if (const auto mapped = CanonicalColumnName(lowered)) {
      resolved[i] = std::string(*mapped);
    }
  }

  HeaderMap map;
  map.file_fields_ = file_names.size();
  map.canonical_to_file_.resize(canonical_names.size());
  for (std::size_t c = 0; c < canonical_names.size(); ++c) {
    const std::string want = Lowered(canonical_names[c]);
    bool found = false;
    for (std::size_t f = 0; f < resolved.size(); ++f) {
      if (resolved[f] == want) {
        map.canonical_to_file_[c] = f;
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;  // unrecognisable: not a header we can map
  }
  map.identity_ = file_names.size() == canonical_names.size();
  if (map.identity_) {
    for (std::size_t c = 0; c < map.canonical_to_file_.size(); ++c) {
      if (map.canonical_to_file_[c] != c) {
        map.identity_ = false;
        break;
      }
    }
  }
  return map;
}

}  // namespace astra::logs
