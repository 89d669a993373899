// Dataset-level ingest hardening: policy, accounting and repair machinery
// shared by the typed log-file readers.
//
// The per-line parsers (serialize.hpp) already survive malformed lines; this
// layer models the DATASET-level damage real field collection produces —
// truncated tails, duplicated records, bounded clock disorder, schema drift —
// and either repairs it (lenient mode) or rejects the dataset (strict mode).
// Every input line is accounted for: parsed + quarantined == seen, always.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "logs/serialize.hpp"

namespace astra::logs {

// Why a quarantined line failed to parse.  Coarse by design: the strict
// field parsers do not report which field broke, so the ingest machine
// reads the cheap-to-check causes off the line's fields and lumps the rest
// as kBadFieldValue.
enum class MalformedReason : std::uint8_t {
  kFieldCount = 0,   // wrong number of tab-separated fields (torn/garbled line)
  kBadTimestamp,     // leading timestamp field unparseable
  kBadFieldValue,    // a later field failed strict parsing or a domain check
};
inline constexpr int kMalformedReasonCount = 3;

[[nodiscard]] std::string_view MalformedReasonName(MalformedReason reason) noexcept;

// How tolerant the ingest should be of dataset damage.
struct IngestPolicy {
  enum class Mode {
    kStrict,   // fail fast once the malformed budget is exceeded
    kLenient,  // quarantine-and-continue; repairs applied, damage reported
  };
  Mode mode = Mode::kLenient;

  // Malformed-line budget as a fraction of data lines seen.  Strict mode
  // aborts the ingest once the running fraction exceeds this (after a small
  // minimum so one bad line in a short file does not trip it); both modes
  // flag `budget_exceeded` in the report when the final fraction is over.
  double max_malformed_fraction = 0.05;

  // Records arriving at most this far behind the newest timestamp seen are
  // re-sorted into order before delivery (0 disables the re-sort buffer).
  std::int64_t reorder_window_seconds = 6 * 3600;

  // Drop a record equal, field for field, to an earlier one still inside
  // the reorder window: one whose timestamp is at least the newest
  // timestamp seen minus reorder_window_seconds (the newest second when the
  // window is 0).  Counted, never silent; a record older than the window is
  // delivered and never matched.
  bool dedup = true;

  // Repair drifted headers (renamed/reordered/extra columns) by reading
  // each data line's fields through the header's column map.
  bool remap_headers = true;

  // Lines seen before the strict budget check engages.
  static constexpr std::size_t kBudgetGraceLines = 100;

  [[nodiscard]] static IngestPolicy Strict(double budget = 0.05) {
    IngestPolicy p;
    p.mode = Mode::kStrict;
    p.max_malformed_fraction = budget;
    return p;
  }
  // Parse-only: no repairs, no budget; records are delivered in file order.
  [[nodiscard]] static IngestPolicy Raw() {
    IngestPolicy p;
    p.max_malformed_fraction = 1.0;
    p.reorder_window_seconds = 0;
    p.dedup = false;
    p.remap_headers = false;
    return p;
  }
};

// Per-file ingest accounting: extends ParseStats with the reason breakdown,
// order/duplicate damage counters and the repair actions taken.
struct IngestReport {
  ParseStats stats;
  std::array<std::size_t, kMalformedReasonCount> malformed_by_reason{};

  std::size_t duplicates_removed = 0;   // parsed, then dropped as in-window dupes
  std::size_t out_of_order_seen = 0;    // arrived behind the max timestamp
  std::size_t reordered = 0;            // repaired by the windowed re-sort
  std::size_t order_violations = 0;     // still delivered out of order

  bool header_remapped = false;  // schema drift repaired via column mapping
  bool budget_exceeded = false;  // final malformed fraction over budget
  bool aborted = false;          // strict mode stopped the ingest early

  std::vector<std::string> repairs;  // human-readable repair log

  // Records actually delivered to the sink.
  [[nodiscard]] std::size_t Delivered() const noexcept {
    return stats.parsed - duplicates_removed;
  }
  // The accounting invariant: every data line is either parsed or
  // quarantined, and every repair acted on a parsed line.
  [[nodiscard]] bool Consistent() const noexcept {
    std::size_t by_reason = 0;
    for (const auto n : malformed_by_reason) by_reason += n;
    return stats.parsed + stats.malformed == stats.total_lines &&
           by_reason == stats.malformed && duplicates_removed <= stats.parsed &&
           reordered + order_violations <= stats.parsed;
  }
  [[nodiscard]] bool AcceptedBy(const IngestPolicy& policy) const noexcept {
    return !(policy.mode == IngestPolicy::Mode::kStrict && budget_exceeded);
  }

  // Close the repair log: append the lines derived from the counters
  // ("dropped N exact duplicate record(s)", "re-sorted N ...").
  void LogCounterRepairs();

  // Fold another stream's report into this one.  Counters add up; per-stream
  // repair lines (header remaps) are kept in order, and the counter-derived
  // lines of both are summed into one line each, as one stream prints them.
  void Merge(const IngestReport& other);
};

// --- Header drift repair ------------------------------------------------------

// Alias -> canonical column-name mapping.  Shared with the corruption
// injector so the schema drift it injects stays within the repairable set.
[[nodiscard]] std::optional<std::string_view> CanonicalColumnName(
    std::string_view name) noexcept;

// All registered aliases for a canonical column name (possibly empty).
[[nodiscard]] std::vector<std::string_view> ColumnAliases(std::string_view canonical);

// Column map from a drifted file header (renamed / reordered / extra
// columns) back to canonical column order.
class HeaderMap {
 public:
  // Returns nullopt when `file_header` cannot be recognised as a header for
  // `canonical` (some canonical column has no match) — the caller should
  // then treat the line as data.
  [[nodiscard]] static std::optional<HeaderMap> Build(std::string_view canonical,
                                                      std::string_view file_header);

  // The widest file header Build accepts: the ingest machine scans a line's
  // fields into a fixed array of this size, so mapping never allocates.
  static constexpr std::size_t kMaxFileFields = 32;

  [[nodiscard]] bool Identity() const noexcept { return identity_; }
  [[nodiscard]] std::size_t FileFieldCount() const noexcept { return file_fields_; }

  // canonical[c] = the view of canonical column c among `file_fields` (one
  // line's FileFieldCount fields, in file column order).
  void ToCanonical(const std::string_view* file_fields,
                   std::string_view* canonical) const noexcept {
    for (std::size_t c = 0; c < canonical_to_file_.size(); ++c) {
      canonical[c] = file_fields[canonical_to_file_[c]];
    }
  }

 private:
  std::vector<std::size_t> canonical_to_file_;
  std::size_t file_fields_ = 0;
  bool identity_ = true;
};

}  // namespace astra::logs
