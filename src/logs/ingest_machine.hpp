// The hardened-ingest state machine, shared by every reader: the batch
// reader (IngestLogFile, log_file.hpp), the sharded reader
// (ParallelIngestLogFile, parallel_ingest.hpp) and the tail-follow reader
// (stream::TailReader).  A reader only turns bytes into lines and decides
// which lines to feed when; the machine does the rest in two stages.
//
//  1. CLASSIFY (const, reentrant): a data line becomes a LineOutcome — the
//     parsed record plus its dedup hash, or the reason it is quarantined.
//     Lines of a file with a drifted header are first projected back into
//     canonical column order (HeaderMap::ProjectLine, no allocation).
//  2. ORDERED STAGE (sequential, in line order): malformed lines are counted
//     by reason; a parsed record is dropped if its hash was seen before,
//     else it waits in the re-sort buffer until it falls behind the reorder
//     horizon; the strict budget is checked after every line.
//
// Finish() drains the buffer and closes the report (final budget verdict,
// counter-derived repair lines).  SaveState/LoadState checkpoint the whole
// machine together with the reader's file cursor.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "logs/ingest.hpp"
#include "logs/serialize.hpp"
#include "util/binio.hpp"
#include "util/flat_map.hpp"

namespace astra::logs {

namespace detail {

template <typename Record>
[[nodiscard]] std::optional<Record> ParseLine(std::string_view line) {
  if constexpr (std::is_same_v<Record, MemoryErrorRecord>) {
    return ParseMemoryError(line);
  } else if constexpr (std::is_same_v<Record, SensorRecord>) {
    return ParseSensor(line);
  } else if constexpr (std::is_same_v<Record, HetRecord>) {
    return ParseHet(line);
  } else if constexpr (std::is_same_v<Record, InventoryRecord>) {
    return ParseInventory(line);
  } else {
    static_assert(!sizeof(Record), "no parser registered for this record type");
  }
}

template <typename Record>
std::string_view Header() noexcept {
  if constexpr (std::is_same_v<Record, MemoryErrorRecord>) {
    return MemoryErrorHeader();
  } else if constexpr (std::is_same_v<Record, SensorRecord>) {
    return SensorHeader();
  } else if constexpr (std::is_same_v<Record, HetRecord>) {
    return HetHeader();
  } else if constexpr (std::is_same_v<Record, InventoryRecord>) {
    return InventoryHeader();
  } else {
    static_assert(!sizeof(Record), "no header registered for this record type");
  }
}

template <typename Record>
[[nodiscard]] SimTime TimestampOf(const Record& record) noexcept {
  if constexpr (std::is_same_v<Record, InventoryRecord>) {
    return record.scan_date;
  } else {
    return record.timestamp;
  }
}

}  // namespace detail

// The fate of one data line.  `malformed` is 0 for a parsed record, else
// 1 + MalformedReason; `dedup_hash` is std::hash of the canonical-order line
// (set only when the policy dedups).
template <typename Record>
struct LineOutcome {
  Record record{};
  std::size_t dedup_hash = 0;
  std::uint8_t malformed = 0;
};

// Where a reader is in its file.  Not machine state, but checkpointed in
// the same record so a restored reader resumes at the same byte.
struct ReaderCursor {
  std::uint64_t offset = 0;
  std::uint64_t rotations = 0;
  bool seen_file = false;
};

template <typename Record>
class IngestMachine {
 public:
  explicit IngestMachine(const IngestPolicy& policy)
      : policy_(policy),
        canonical_fields_(static_cast<std::size_t>(
            std::count(Canonical().begin(), Canonical().end(), '\t') + 1)) {}

  [[nodiscard]] const IngestReport& Report() const noexcept { return report_; }
  [[nodiscard]] bool Aborted() const noexcept { return report_.aborted; }
  [[nodiscard]] bool Finished() const noexcept { return finished_; }

  // Pre-size the dedup table for `records` parsed records.
  void Reserve(std::size_t records) {
    if (policy_.dedup) seen_hashes_.Reserve(records);
  }

  // Resolve the first line of a file: true when it is a header — canonical,
  // or a drifted one whose columns are projected from now on — rather than
  // data.
  bool TakeFirstLine(std::string_view line) {
    first_line_done_ = true;
    if (line == Canonical()) return true;
    if (!policy_.remap_headers || line.empty()) return false;
    auto map = HeaderMap::Build(Canonical(), line);
    if (!map) return false;
    header_map_ = std::move(*map);
    file_header_line_ = std::string(line);
    report_.header_remapped = true;
    report_.repairs.push_back(
        "remapped drifted header (" +
        std::string(header_map_->Identity() ? "aliases only" : "column order") +
        ") back to canonical schema");
    return true;
  }

  // A rotated or truncated file starts over with its own header; the
  // stream-level state (accounting, dedup, re-sort buffer) carries on.
  void RestartFile() {
    first_line_done_ = false;
    header_map_.reset();
    file_header_line_.clear();
  }

  // Stage 1.  False when the line carries no data (blank, or a repeat of
  // the canonical or the file header); else fills `out`.  `scratch` holds
  // the projected line, so concurrent callers each pass their own.
  bool Classify(std::string_view line, LineOutcome<Record>& out,
                std::string& scratch) const {
    if (line.empty() || line == Canonical()) return false;
    if (header_map_) {
      if (line == file_header_line_) return false;
      if (!header_map_->Identity()) {
        if (!header_map_->ProjectLine(line, scratch)) {
          out.malformed = 1 + static_cast<std::uint8_t>(MalformedReason::kFieldCount);
          return true;
        }
        line = scratch;
      }
    }
    if (const auto record = detail::ParseLine<Record>(line)) {
      out.record = *record;
      out.dedup_hash = policy_.dedup ? std::hash<std::string_view>{}(line) : 0;
      out.malformed = 0;
    } else {
      out.malformed =
          1 + static_cast<std::uint8_t>(ClassifyMalformed(line, canonical_fields_));
    }
    return true;
  }

  // Stage 2 for one outcome.  False once the strict budget aborts the
  // ingest; the caller stops feeding.
  template <typename Sink>
  bool Feed(const LineOutcome<Record>& line, Sink&& sink) {
    ++report_.stats.total_lines;
    if (line.malformed != 0) {
      ++report_.stats.malformed;
      ++report_.malformed_by_reason[line.malformed - 1u];
    } else {
      ++report_.stats.parsed;
      if (policy_.dedup && !seen_hashes_.Insert(line.dedup_hash)) {
        ++report_.duplicates_removed;
      } else {
        Stage(line.record, sink);
      }
    }
    // Strict fail-fast once the running malformed fraction blows the budget
    // (the grace period avoids tripping on short prefixes).
    if (policy_.mode == IngestPolicy::Mode::kStrict &&
        report_.stats.total_lines >= IngestPolicy::kBudgetGraceLines &&
        report_.stats.MalformedFraction() > policy_.max_malformed_fraction) {
      report_.budget_exceeded = true;
      report_.aborted = true;
      return false;
    }
    return true;
  }

  // Both stages for one line of a serial walk, first-line header detection
  // included.  False once the strict budget aborts.
  template <typename Sink>
  bool FeedLine(std::string_view line, Sink&& sink) {
    if (!first_line_done_ && TakeFirstLine(line)) return true;
    LineOutcome<Record> outcome;
    return !Classify(line, outcome, projected_) || Feed(outcome, sink);
  }

  // Drain the re-sort buffer (also after a strict abort: every record
  // counted as parsed is delivered) and close the report.  Idempotent.
  template <typename Sink>
  void Finish(Sink&& sink) {
    if (finished_) return;
    finished_ = true;
    for (const Pending& p : pending_) Emit(p, sink);
    pending_.clear();
    if (report_.stats.MalformedFraction() > policy_.max_malformed_fraction) {
      report_.budget_exceeded = true;
    }
    report_.LogCounterRepairs();
  }

  // The checkpoint record: cursor, header repair, accounting, dedup hashes
  // (ascending) and the re-sort buffer (in emission order).  Buffered
  // records round-trip through the canonical text format — FormatRecord and
  // ParseLine are exact inverses.  std::hash values are only meaningful
  // within one build (binio.hpp).
  void SaveState(binio::Writer& writer, const ReaderCursor& cursor) const {
    writer.PutU64(cursor.offset);
    writer.PutBool(first_line_done_);
    writer.PutBool(header_map_.has_value());
    writer.PutString(file_header_line_);
    writer.PutU64(cursor.rotations);
    writer.PutBool(report_.aborted);
    writer.PutBool(finished_);
    writer.PutBool(cursor.seen_file);

    writer.PutU64(report_.stats.total_lines);
    writer.PutU64(report_.stats.parsed);
    writer.PutU64(report_.stats.malformed);
    for (const auto n : report_.malformed_by_reason) writer.PutU64(n);
    writer.PutU64(report_.duplicates_removed);
    writer.PutU64(report_.out_of_order_seen);
    writer.PutU64(report_.reordered);
    writer.PutU64(report_.order_violations);
    writer.PutBool(report_.header_remapped);
    writer.PutBool(report_.budget_exceeded);
    writer.PutBool(report_.aborted);
    writer.PutU64(report_.repairs.size());
    for (const auto& repair : report_.repairs) writer.PutString(repair);

    writer.PutU64(seq_);
    writer.PutBool(max_seen_.has_value());
    writer.PutI64(max_seen_ ? max_seen_->Seconds() : 0);
    writer.PutBool(last_emitted_.has_value());
    writer.PutI64(last_emitted_ ? last_emitted_->Seconds() : 0);

    const std::vector<std::uint64_t> hashes = seen_hashes_.SortedValues();
    writer.PutU64(hashes.size());
    for (const std::uint64_t h : hashes) writer.PutU64(h);

    writer.PutU64(pending_.size());
    for (const Pending& p : pending_) {
      writer.PutString(FormatRecord(p.record));
      writer.PutU64(p.seq);
      writer.PutBool(p.was_out_of_order);
    }
  }

  // Replace the machine's state and `cursor` from a SaveState record.  False
  // on a malformed payload; both are then reset to their initial state,
  // never half-restored.  Every decoded count passes the reader's bound
  // check before anything is sized for it.
  [[nodiscard]] bool LoadState(binio::Reader& reader, ReaderCursor& cursor) {
    *this = IngestMachine(policy_);
    cursor = ReaderCursor{};
    cursor.offset = reader.GetU64();
    first_line_done_ = reader.GetBool();
    const bool has_header_map = reader.GetBool();
    bool ok = reader.GetString(file_header_line_);
    cursor.rotations = reader.GetU64();
    const bool aborted = reader.GetBool();
    finished_ = reader.GetBool();
    cursor.seen_file = reader.GetBool();
    if (ok && has_header_map) {
      // The projection is rebuilt, not serialized: the drifted header line is
      // the authoritative state and HeaderMap::Build is deterministic.
      header_map_ = HeaderMap::Build(Canonical(), file_header_line_);
      ok = header_map_.has_value();
    }

    report_.stats.total_lines = reader.GetU64();
    report_.stats.parsed = reader.GetU64();
    report_.stats.malformed = reader.GetU64();
    for (auto& n : report_.malformed_by_reason) n = reader.GetU64();
    report_.duplicates_removed = reader.GetU64();
    report_.out_of_order_seen = reader.GetU64();
    report_.reordered = reader.GetU64();
    report_.order_violations = reader.GetU64();
    report_.header_remapped = reader.GetBool();
    report_.budget_exceeded = reader.GetBool();
    report_.aborted = reader.GetBool();
    ok = ok && report_.aborted == aborted;
    const std::uint64_t repair_count = reader.GetU64();
    ok = ok && reader.CanReadItems(repair_count, 8);
    for (std::uint64_t i = 0; ok && i < repair_count; ++i) {
      std::string repair;
      ok = reader.GetString(repair);
      if (ok) report_.repairs.push_back(std::move(repair));
    }

    seq_ = reader.GetU64();
    const bool has_max = reader.GetBool();
    const SimTime max_seen{reader.GetI64()};
    if (has_max) max_seen_ = max_seen;
    const bool has_last = reader.GetBool();
    const SimTime last_emitted{reader.GetI64()};
    if (has_last) last_emitted_ = last_emitted;

    const std::uint64_t hash_count = reader.GetU64();
    ok = ok && reader.CanReadItems(hash_count, sizeof(std::uint64_t));
    if (ok) seen_hashes_.Reserve(static_cast<std::size_t>(hash_count));
    for (std::uint64_t i = 0; ok && i < hash_count; ++i) {
      seen_hashes_.Insert(reader.GetU64());
    }

    const std::uint64_t pending_count = reader.GetU64();
    ok = ok && reader.CanReadItems(pending_count, 16);
    std::string line;
    for (std::uint64_t i = 0; ok && i < pending_count; ++i) {
      std::optional<Record> record;
      if (reader.GetString(line)) record = detail::ParseLine<Record>(line);
      ok = record.has_value();
      if (ok) Buffer(Pending{*record, reader.GetU64(), reader.GetBool()});
    }

    if (!ok || !reader.Ok()) {
      *this = IngestMachine(policy_);
      cursor = ReaderCursor{};
      return false;
    }
    return true;
  }

 private:
  struct Pending {
    Record record;
    std::uint64_t seq = 0;
    bool was_out_of_order = false;
  };

  [[nodiscard]] static std::string_view Canonical() noexcept {
    return detail::Header<Record>();
  }

  // The emission order: ascending (timestamp, arrival seq).
  [[nodiscard]] static bool Earlier(const Pending& a, const Pending& b) noexcept {
    const SimTime ta = detail::TimestampOf(a.record);
    const SimTime tb = detail::TimestampOf(b.record);
    return ta < tb || (ta == tb && a.seq < b.seq);
  }

  // Keep pending_ sorted in emission order.  Error logs arrive nearly
  // sorted, so almost every record belongs at the back (O(1)); only an
  // out-of-order record pays the binary-search insert.
  void Buffer(Pending p) {
    if (pending_.empty() || !Earlier(p, pending_.back())) {
      pending_.push_back(std::move(p));
    } else {
      pending_.insert(std::upper_bound(pending_.begin(), pending_.end(), p, Earlier),
                      std::move(p));
    }
  }

  template <typename Sink>
  void Stage(const Record& record, Sink& sink) {
    Pending p{record, seq_++, false};
    const SimTime t = detail::TimestampOf(record);
    if (max_seen_ && t < *max_seen_) {
      p.was_out_of_order = true;
      ++report_.out_of_order_seen;
    }
    if (!max_seen_ || t > *max_seen_) max_seen_ = t;
    if (policy_.reorder_window_seconds <= 0) {
      Emit(p, sink);
      return;
    }
    Buffer(std::move(p));
    const SimTime horizon = max_seen_->AddSeconds(-policy_.reorder_window_seconds);
    while (!pending_.empty() && detail::TimestampOf(pending_.front().record) <= horizon) {
      Emit(pending_.front(), sink);
      pending_.pop_front();
    }
  }

  template <typename Sink>
  void Emit(const Pending& p, Sink& sink) {
    const SimTime t = detail::TimestampOf(p.record);
    if (last_emitted_ && t < *last_emitted_) {
      ++report_.order_violations;
    } else if (p.was_out_of_order) {
      ++report_.reordered;
    }
    if (!last_emitted_ || t > *last_emitted_) last_emitted_ = t;
    sink(p.record);
  }

  IngestPolicy policy_;
  std::size_t canonical_fields_ = 0;

  bool first_line_done_ = false;
  std::optional<HeaderMap> header_map_;
  std::string file_header_line_;  // the drifted header, skipped if repeated
  bool finished_ = false;

  IngestReport report_;
  std::deque<Pending> pending_;
  std::uint64_t seq_ = 0;
  std::optional<SimTime> max_seen_;
  std::optional<SimTime> last_emitted_;
  FlatHashSet seen_hashes_;
  std::string projected_;  // FeedLine's projection scratch
};

}  // namespace astra::logs
