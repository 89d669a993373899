// The hardened-ingest state machine, shared by both readers: the sharded
// batch reader (IngestAllRecords, log_file.hpp) and the tail-follow reader
// (stream::TailReader).  A reader only turns bytes into lines and decides
// which lines to feed when; the machine does the rest in two stages.
//
//  1. CLASSIFY (const, reentrant): one scan splits a data line into its
//     fields in file column order; under a drifted header they are read
//     through the header's column map.  The line becomes a LineOutcome —
//     the parsed record plus its fingerprint, or the reason it is
//     quarantined, read off the same fields.
//  2. ORDERED STAGE (sequential, in line order): malformed lines are counted
//     by reason; a parsed record is dropped if an equal record (operator==)
//     is still inside the reorder window, else it waits in the re-sort
//     buffer until it falls behind the reorder horizon; the strict budget
//     is checked after every line.
//
// The dedup scope is the re-sort buffer plus the records delivered at
// exactly the horizon second, indexed by fingerprint, so dedup state and
// checkpoints are O(window), not O(stream).  Finish() drains the buffer and
// closes the report (final budget verdict, counter-derived repair lines).
// SaveState/LoadState checkpoint the whole machine together with the
// reader's file cursor.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "logs/ingest.hpp"
#include "logs/serialize.hpp"
#include "util/binio.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace astra::logs {

namespace detail {

// Each record type's schema: its header line, its column count, and its
// parsers of one record's fields (in header order) and of one whole line.
template <typename Record>
struct Schema;

template <>
struct Schema<MemoryErrorRecord> {
  static constexpr auto Header = MemoryErrorHeader;
  static constexpr std::size_t kFields = kMemoryErrorFieldCount;
  static constexpr auto ParseFields = ParseMemoryErrorFields;
  static constexpr auto ParseLine = ParseMemoryError;
};
template <>
struct Schema<SensorRecord> {
  static constexpr auto Header = SensorHeader;
  static constexpr std::size_t kFields = kSensorFieldCount;
  static constexpr auto ParseFields = ParseSensorFields;
  static constexpr auto ParseLine = ParseSensor;
};
template <>
struct Schema<HetRecord> {
  static constexpr auto Header = HetHeader;
  static constexpr std::size_t kFields = kHetFieldCount;
  static constexpr auto ParseFields = ParseHetFields;
  static constexpr auto ParseLine = ParseHet;
};
template <>
struct Schema<InventoryRecord> {
  static constexpr auto Header = InventoryHeader;
  static constexpr std::size_t kFields = kInventoryFieldCount;
  static constexpr auto ParseFields = ParseInventoryFields;
  static constexpr auto ParseLine = ParseInventory;
};

template <typename Record>
[[nodiscard]] SimTime TimestampOf(const Record& record) noexcept {
  if constexpr (std::is_same_v<Record, InventoryRecord>) {
    return record.scan_date;
  } else {
    return record.timestamp;
  }
}

// An integral or enum field zero-extended to 64 bits.
template <typename T>
[[nodiscard]] constexpr std::uint64_t Zext(T value) noexcept {
  if constexpr (std::is_enum_v<T>) {
    return Zext(static_cast<std::underlying_type_t<T>>(value));
  } else {
    return static_cast<std::uint64_t>(static_cast<std::make_unsigned_t<T>>(value));
  }
}

// A fixed mix of every field operator== compares, so equal records always
// share a fingerprint.  It only picks the dedup index's slots: whether two
// records are duplicates is decided by operator== alone.
[[nodiscard]] inline std::uint64_t Fingerprint(const MemoryErrorRecord& r) noexcept {
  return MixSeed(Zext(r.timestamp.Seconds()), r.physical_address,
                 Zext(r.node) << 32 | r.syndrome, Zext(r.row) << 32 | Zext(r.bit_position),
                 Zext(r.socket) | Zext(r.type) << 8 | Zext(r.slot) << 16 |
                     Zext(r.rank) << 24 | Zext(r.bank) << 32);
}
[[nodiscard]] inline std::uint64_t Fingerprint(const HetRecord& r) noexcept {
  return MixSeed(Zext(r.timestamp.Seconds()),
                 Zext(r.node) | Zext(r.event) << 32 | Zext(r.severity) << 40 |
                     Zext(r.socket) << 48 | Zext(r.slot) << 56);
}
[[nodiscard]] inline std::uint64_t Fingerprint(const SensorRecord& r) noexcept {
  // +0.0 == -0.0: zero is mixed by value, not by its bits.
  return MixSeed(Zext(r.timestamp.Seconds()),
                 Zext(r.node) | Zext(r.sensor) << 32 | (r.valid ? 1ULL << 40 : 0),
                 r.value == 0.0 ? 0 : std::bit_cast<std::uint64_t>(r.value));
}
[[nodiscard]] inline std::uint64_t Fingerprint(const InventoryRecord& r) noexcept {
  return MixSeed(Zext(r.scan_date.Seconds()),
                 Zext(r.site.kind) | Zext(r.site.node) << 8 | Zext(r.site.index) << 40,
                 r.serial);
}

// The dedup index: fingerprint -> arrival number (seq) of every record in
// the dedup scope.  One power-of-two array of 16-byte slots, linear
// probing, at most half full.  Erase shifts the rest of the probe run back
// instead of leaving a tombstone, so the table never holds more than the
// scope does.
class WindowIndex {
 public:
  // True when `match(seq)` holds for some entry under `fingerprint`.
  template <typename Match>
  [[nodiscard]] bool AnyOf(std::uint64_t fingerprint, Match&& match) const {
    if (size_ == 0) return false;
    for (std::size_t i = Home(fingerprint);; i = Next(i)) {
      if (slots_[i].seq == kFree) return false;
      if (slots_[i].fingerprint == fingerprint && match(slots_[i].seq)) return true;
    }
  }

  void Insert(std::uint64_t fingerprint, std::uint64_t seq) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    Place(Slot{fingerprint, seq});
    ++size_;
  }

  // Remove the entry (fingerprint, seq); a no-op when it is absent.
  void Erase(std::uint64_t fingerprint, std::uint64_t seq) noexcept {
    if (size_ == 0) return;
    std::size_t hole = Home(fingerprint);
    while (slots_[hole].seq != seq || slots_[hole].fingerprint != fingerprint) {
      if (slots_[hole].seq == kFree) return;
      hole = Next(hole);
    }
    for (std::size_t i = Next(hole); slots_[i].seq != kFree; i = Next(i)) {
      // Slot i may fill the hole unless its home lies after the hole.
      if (((i - Home(slots_[i].fingerprint)) & Mask()) >= ((i - hole) & Mask())) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole].seq = kFree;
    --size_;
  }

  void Clear() noexcept {
    slots_ = {};
    size_ = 0;
  }

 private:
  static constexpr std::uint64_t kFree = ~std::uint64_t{0};
  static constexpr std::size_t kMinSlots = 64;

  struct Slot {
    std::uint64_t fingerprint = 0;
    std::uint64_t seq = kFree;
  };

  [[nodiscard]] std::size_t Mask() const noexcept { return slots_.size() - 1; }
  [[nodiscard]] std::size_t Home(std::uint64_t fingerprint) const noexcept {
    return static_cast<std::size_t>(fingerprint) & Mask();
  }
  [[nodiscard]] std::size_t Next(std::size_t i) const noexcept { return (i + 1) & Mask(); }

  void Place(const Slot& slot) noexcept {
    std::size_t i = Home(slot.fingerprint);
    while (slots_[i].seq != kFree) i = Next(i);
    slots_[i] = slot;
  }

  void Grow() {
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(std::max(kMinSlots, 2 * slots_.size())));
    for (const Slot& slot : old) {
      if (slot.seq != kFree) Place(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace detail

// The fate of one data line.  `malformed` is 0 for a parsed record, else
// 1 + MalformedReason; `fingerprint` is detail::Fingerprint of the record
// (set only when the policy dedups).
template <typename Record>
struct LineOutcome {
  Record record{};
  std::uint64_t fingerprint = 0;
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
  explicit IngestMachine(const IngestPolicy& policy) : policy_(policy) {}

  [[nodiscard]] const IngestReport& Report() const noexcept { return report_; }
  [[nodiscard]] bool Aborted() const noexcept { return report_.aborted; }
  [[nodiscard]] bool Finished() const noexcept { return finished_; }

  // Resolve the first line of a file: true when it is a header — canonical,
  // or a drifted one whose columns are mapped from now on — rather than
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
  // the canonical or the file header); else fills `out`.  One scan splits
  // the line into its file-order fields; the parse and the malformed
  // reason both read those views, in canonical order.
  bool Classify(std::string_view line, LineOutcome<Record>& out) const {
    if (line.empty() || line == Canonical()) return false;
    if (header_map_ && line == file_header_line_) return false;
    constexpr std::size_t kFields = detail::Schema<Record>::kFields;
    const std::size_t count = header_map_ ? header_map_->FileFieldCount() : kFields;
    std::array<std::string_view, HeaderMap::kMaxFileFields> fields;
    if (ScanFields(line, '\t', fields.data(), count) != count) {
      out.malformed = Quarantined(MalformedReason::kFieldCount);
      return true;
    }
    std::array<std::string_view, kFields> mapped;
    const std::string_view* row = fields.data();
    if (header_map_ && !header_map_->Identity()) {
      header_map_->ToCanonical(fields.data(), mapped.data());
      row = mapped.data();
    }
    if (const auto record = detail::Schema<Record>::ParseFields(
            std::span<const std::string_view, kFields>(row, kFields))) {
      out.record = *record;
      out.fingerprint = policy_.dedup ? detail::Fingerprint(*record) : 0;
      out.malformed = 0;
    } else {
      SimTime t;
      out.malformed = Quarantined(SimTime::Parse(row[0], t) ? MalformedReason::kBadFieldValue
                                                            : MalformedReason::kBadTimestamp);
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
      Stage(Pending{line.record, seq_, line.fingerprint, false}, sink);
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

  // Both stages for one line of a line-by-line walk (the tail reader),
  // first-line header detection included.  False once the strict budget
  // aborts.
  template <typename Sink>
  bool FeedLine(std::string_view line, Sink&& sink) {
    if (!first_line_done_ && TakeFirstLine(line)) return true;
    LineOutcome<Record> outcome;
    return !Classify(line, outcome) || Feed(outcome, sink);
  }

  // Drain the re-sort buffer (also after a strict abort: every record
  // counted as parsed is delivered) and close the report.  Idempotent.
  template <typename Sink>
  void Finish(Sink&& sink) {
    if (finished_) return;
    finished_ = true;
    for (const Pending& p : pending_) Emit(p, sink);
    pending_.clear();
    horizon_.clear();
    index_.Clear();
    if (report_.stats.MalformedFraction() > policy_.max_malformed_fraction) {
      report_.budget_exceeded = true;
    }
    report_.LogCounterRepairs();
  }

  // The checkpoint record: cursor, header repair, accounting, the delivered
  // records at the horizon second (arrival order) and the re-sort buffer
  // (emission order).  Records round-trip through the canonical text
  // format — FormatRecord and ParseLine are exact inverses — with their
  // arrival numbers; the dedup index is rebuilt on load, so the record is
  // O(window) and holds nothing a build could compute differently.
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

    writer.PutU64(horizon_.size());
    for (const Pending& p : horizon_) {
      writer.PutString(FormatRecord(p.record));
      writer.PutU64(p.seq);
    }
    writer.PutU64(pending_.size());
    for (const Pending& p : pending_) {
      writer.PutString(FormatRecord(p.record));
      writer.PutU64(p.seq);
      writer.PutBool(p.was_out_of_order);
    }
  }

  // Decode a SaveState record into this freshly constructed machine and
  // `cursor`.  False on a malformed payload.  Every decoded count passes the
  // reader's bound check before anything is sized for it.  The checkpoint
  // rule refuses any other byte-level shape SaveState never writes; what
  // re-encodes unchanged is checked here: a record outside its place in
  // the window, an arrival number not yet handed out, and a record its own
  // dedup would have dropped.
  [[nodiscard]] bool LoadState(binio::Reader& reader, ReaderCursor& cursor) {
    cursor.offset = reader.GetU64();
    first_line_done_ = reader.GetBool();
    const bool has_header_map = reader.GetBool();
    if (!reader.GetString(file_header_line_)) return false;
    cursor.rotations = reader.GetU64();
    (void)reader.GetBool();  // report_.aborted, decoded with the report below
    finished_ = reader.GetBool();
    cursor.seen_file = reader.GetBool();
    if (has_header_map) {
      // The column map is rebuilt, not serialized: the drifted header line is
      // the authoritative state and HeaderMap::Build is deterministic.
      header_map_ = HeaderMap::Build(Canonical(), file_header_line_);
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
    const std::uint64_t repair_count = reader.GetU64();
    if (!reader.CanReadItems(repair_count, 8)) return false;
    for (std::uint64_t i = 0; i < repair_count; ++i) {
      std::string repair;
      if (!reader.GetString(repair)) return false;
      report_.repairs.push_back(std::move(repair));
    }

    seq_ = reader.GetU64();
    const bool has_max = reader.GetBool();
    const SimTime max_seen{reader.GetI64()};
    if (has_max) max_seen_ = max_seen;
    const bool has_last = reader.GetBool();
    const SimTime last_emitted{reader.GetI64()};
    if (has_last) last_emitted_ = last_emitted;

    // One saved record; both lists are empty once finished, and need a
    // newest timestamp.
    const auto decode = [&](bool buffered) -> std::optional<Pending> {
      std::string line;
      if (!reader.GetString(line)) return std::nullopt;
      const std::optional<Record> record = detail::Schema<Record>::ParseLine(line);
      const std::uint64_t seq = reader.GetU64();
      const bool was_out_of_order = buffered && reader.GetBool();
      if (!record || finished_ || !max_seen_ || seq >= seq_) return std::nullopt;
      Pending p{*record, seq, policy_.dedup ? detail::Fingerprint(*record) : 0,
                was_out_of_order};
      if (policy_.dedup && Known(p)) return std::nullopt;
      return p;
    };
    const std::uint64_t horizon_count = reader.GetU64();
    if (!reader.CanReadItems(horizon_count, 16)) return false;
    for (std::uint64_t i = 0; i < horizon_count; ++i) {
      // Kept by a dedup machine only, stamped with the horizon second, in
      // arrival order.
      const std::optional<Pending> p = decode(false);
      if (!p || !policy_.dedup || detail::TimestampOf(p->record) != Horizon() ||
          (!horizon_.empty() && p->seq <= horizon_.back().seq)) {
        return false;
      }
      Remember(*p);
    }
    const std::uint64_t pending_count = reader.GetU64();
    if (!reader.CanReadItems(pending_count, 16)) return false;
    for (std::uint64_t i = 0; i < pending_count; ++i) {
      // Buffered records lie after the horizon, at most at the newest second.
      std::optional<Pending> p = decode(true);
      if (!p || detail::TimestampOf(p->record) <= Horizon() ||
          detail::TimestampOf(p->record) > *max_seen_) {
        return false;
      }
      Buffer(std::move(*p));
    }
    return reader.Ok();
  }

 private:
  struct Pending {
    Record record;
    std::uint64_t seq = 0;          // arrival number
    std::uint64_t fingerprint = 0;  // detail::Fingerprint, when the policy dedups
    bool was_out_of_order = false;
  };

  // Buffer() looks this many places back from the tail before it falls back
  // to a binary search.
  static constexpr int kTailScan = 8;

  [[nodiscard]] static std::string_view Canonical() noexcept {
    return detail::Schema<Record>::Header();
  }

  [[nodiscard]] static std::uint8_t Quarantined(MalformedReason reason) noexcept {
    return static_cast<std::uint8_t>(1 + static_cast<int>(reason));
  }

  // Records older than this are past the reorder window: delivered, and
  // out of the dedup scope.  Needs a newest timestamp.
  [[nodiscard]] SimTime Horizon() const noexcept {
    return max_seen_->AddSeconds(-std::max<std::int64_t>(policy_.reorder_window_seconds, 0));
  }

  // The index in pending_ of the first record not earlier than (t, seq) in
  // emission order — ascending (timestamp, arrival seq).  Error logs arrive
  // nearly sorted, so the point is almost always within a few places of the
  // back; only a far straggler pays the binary search.
  [[nodiscard]] std::size_t BufferPoint(SimTime t, std::uint64_t seq) const noexcept {
    const auto earlier = [t, seq](const Pending& p) {
      const SimTime tp = detail::TimestampOf(p.record);
      return tp < t || (tp == t && p.seq < seq);
    };
    std::size_t i = pending_.size();
    for (int step = 0; step < kTailScan; ++step) {
      if (i == 0 || earlier(pending_[i - 1])) return i;
      --i;
    }
    const auto begin = pending_.begin();
    return static_cast<std::size_t>(
        std::partition_point(begin, begin + static_cast<std::ptrdiff_t>(i), earlier) - begin);
  }

  // True when a record equal to `p` is in the dedup scope.  A fingerprint
  // hit names an arrival number; the record it names is compared itself.
  [[nodiscard]] bool Known(const Pending& p) const {
    const SimTime t = detail::TimestampOf(p.record);
    const bool at_horizon = t == Horizon();
    return index_.AnyOf(p.fingerprint, [&](std::uint64_t seq) {
      if (at_horizon) {
        const auto it = std::lower_bound(
            horizon_.begin(), horizon_.end(), seq,
            [](const Pending& q, std::uint64_t s) { return q.seq < s; });
        return it != horizon_.end() && it->seq == seq && it->record == p.record;
      }
      const std::size_t at = BufferPoint(t, seq);
      return at < pending_.size() && pending_[at].seq == seq && pending_[at].record == p.record;
    });
  }

  // `p`, delivered at the horizon second, stays in the dedup scope.
  void Remember(const Pending& p) {
    index_.Insert(p.fingerprint, p.seq);
    horizon_.push_back(p);
  }

  // Insert `p` into pending_ in emission order (and into the dedup index).
  void Buffer(Pending p) {
    if (policy_.dedup) index_.Insert(p.fingerprint, p.seq);
    const std::size_t at = BufferPoint(detail::TimestampOf(p.record), p.seq);
    if (at == pending_.size()) {
      pending_.push_back(std::move(p));
    } else {
      pending_.insert(pending_.begin() + static_cast<std::ptrdiff_t>(at), std::move(p));
    }
  }

  template <typename Sink>
  void Stage(Pending p, Sink& sink) {
    const SimTime t = detail::TimestampOf(p.record);
    if (max_seen_ && t <= *max_seen_) {
      // Only a record no newer than the newest can have an earlier twin.
      if (policy_.dedup && t >= Horizon() && Known(p)) {
        ++report_.duplicates_removed;
        return;
      }
      if (t < *max_seen_) {
        p.was_out_of_order = true;
        ++report_.out_of_order_seen;
      }
    } else {
      // The horizon moves on: its second's records leave the dedup scope.
      max_seen_ = t;
      for (const Pending& h : horizon_) index_.Erase(h.fingerprint, h.seq);
      horizon_.clear();
    }
    ++seq_;
    const SimTime horizon = Horizon();
    if (policy_.reorder_window_seconds <= 0) {
      Emit(p, sink);
      if (policy_.dedup && t == horizon) Remember(p);
      return;
    }
    Buffer(std::move(p));
    while (!pending_.empty() && detail::TimestampOf(pending_.front().record) <= horizon) {
      const Pending& front = pending_.front();
      Emit(front, sink);
      if (policy_.dedup) {
        if (detail::TimestampOf(front.record) == horizon) {
          horizon_.push_back(front);  // still in scope, still indexed
        } else {
          index_.Erase(front.fingerprint, front.seq);
        }
      }
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

  bool first_line_done_ = false;
  std::optional<HeaderMap> header_map_;
  std::string file_header_line_;  // the drifted header, skipped if repeated
  bool finished_ = false;

  IngestReport report_;
  std::uint64_t seq_ = 0;  // the next arrival number
  std::optional<SimTime> max_seen_;
  std::optional<SimTime> last_emitted_;
  // The dedup scope: the re-sort buffer in emission order, the delivered
  // records at exactly the horizon second in arrival order (dedup only),
  // and the fingerprint index over both (dedup only).
  std::deque<Pending> pending_;
  std::vector<Pending> horizon_;
  detail::WindowIndex index_;
};

}  // namespace astra::logs
