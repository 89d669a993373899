#include "core/coalesce.hpp"

#include <algorithm>

namespace astra::core {

std::uint64_t FaultCoalescer::GroupKey(const logs::MemoryErrorRecord& r) noexcept {
  return (static_cast<std::uint64_t>(r.node) << 16) |
         (static_cast<std::uint64_t>(static_cast<int>(r.slot)) << 8) |
         (static_cast<std::uint64_t>(r.rank) << 6) |
         static_cast<std::uint64_t>(r.bank);
}

void FaultCoalescer::AddToGroup(Group& group, const logs::MemoryErrorRecord& record) {
  if (group.error_count == 0) {
    group.first_seen = record.timestamp;
    group.last_seen = record.timestamp;
    group.anchor_address = record.physical_address;
    group.anchor_bit = record.bit_position;
  }
  ++group.error_count;
  group.first_seen = std::min(group.first_seen, record.timestamp);
  group.last_seen = std::max(group.last_seen, record.timestamp);
  ++group.addresses[record.physical_address];
  // Column is decodable from the physical address (layout in geometry/).
  const DramCoord coord = DecodePhysicalAddress(record.node, record.physical_address);
  ++group.columns[static_cast<std::uint32_t>(coord.column)];
  ++group.bits[static_cast<std::uint32_t>(record.bit_position)];
  if (options_.row_decodable && record.row != logs::kNoRowInfo) {
    group.rows.insert(static_cast<std::uint32_t>(record.row));
  }

  // Absolute calendar month: origin-free, so the same accumulation serves
  // batch (window known up front) and streaming (window known at finalize).
  const std::int64_t month = month_cache_.MonthOf(record.timestamp);
  ++group.monthly[month];

  // Per-address detail, abandoned once the group is too large to decompose.
  if (!group.detail_overflow) {
    if (group.addresses.size() > options_.decompose_address_limit) {
      group.detail_overflow = true;
      group.details.clear();
      group.details.shrink_to_fit();
    } else {
      auto it = std::find_if(group.details.begin(), group.details.end(),
                             [&](const AddressDetail& d) {
                               return d.address == record.physical_address;
                             });
      if (it == group.details.end()) {
        AddressDetail detail;
        detail.address = record.physical_address;
        detail.first_seen = record.timestamp;
        detail.last_seen = record.timestamp;
        detail.anchor_bit = record.bit_position;
        group.details.push_back(std::move(detail));
        it = std::prev(group.details.end());
      }
      ++it->error_count;
      it->first_seen = std::min(it->first_seen, record.timestamp);
      it->last_seen = std::max(it->last_seen, record.timestamp);
      it->bits.insert(static_cast<std::uint32_t>(record.bit_position));
      ++it->monthly[month];
    }
  }
}

void FaultCoalescer::Add(const logs::MemoryErrorRecord& record) {
  if (record.type == logs::FailureType::kUncorrectable &&
      !options_.include_uncorrectable) {
    ++skipped_records_;
    return;
  }
  ++total_errors_;
  AddToGroup(groups_[GroupKey(record)], record);
}

void FaultCoalescer::ObserveBatch(std::span<const logs::MemoryErrorRecord> batch,
                                  std::uint64_t /*first_seq*/) {
  // Same state as Add per record; the only extra is a last-group memo.
  // Error streams cluster by DIMM, so consecutive records usually share a
  // key and skip the hash lookup.  unordered_map values are pointer-stable
  // (rehashing relinks nodes, never moves them), so the memo survives
  // insertions of other keys.
  std::uint64_t last_key = 0;
  Group* last_group = nullptr;
  for (const auto& record : batch) {
    if (record.type == logs::FailureType::kUncorrectable &&
        !options_.include_uncorrectable) {
      ++skipped_records_;
      continue;
    }
    ++total_errors_;
    const std::uint64_t key = GroupKey(record);
    if (last_group == nullptr || key != last_key) {
      last_group = &groups_[key];
      last_key = key;
    }
    AddToGroup(*last_group, record);
  }
}

namespace {

// Largest single-key share of a counted pattern.
template <typename Map>
double TopShare(const Map& counts, std::uint64_t total) noexcept {
  std::uint64_t top = 0;
  for (const auto& [key, count] : counts) top = std::max(top, count);
  return total == 0 ? 0.0
                    : static_cast<double>(top) / static_cast<double>(total);
}

// Sorted-order map/set traversal keeps emitted fault order and serialized
// bytes independent of hash-table iteration order, so identical logical
// state always produces identical output (and a stable checkpoint CRC).
template <typename Map>
std::vector<typename Map::key_type> SortedKeys(const Map& map) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(map.size());
  for (const auto& entry : map) keys.push_back(entry.first);
  std::sort(keys.begin(), keys.end());
  return keys;
}

template <typename Set>
std::vector<typename Set::key_type> SortedValues(const Set& set) {
  std::vector<typename Set::key_type> values(set.begin(), set.end());
  std::sort(values.begin(), values.end());
  return values;
}

// Project absolute-month bins onto the origin-relative series the report
// renders; months outside [0, month_count) are dropped, matching a batch
// pass configured with this shape up front.
std::vector<std::uint32_t> RemapMonthly(
    const std::map<std::int64_t, std::uint32_t>& monthly,
    std::int64_t origin_month, int month_count) {
  std::vector<std::uint32_t> out;
  if (month_count <= 0) return out;
  out.assign(static_cast<std::size_t>(month_count), 0);
  for (const auto& [month, count] : monthly) {
    const std::int64_t index = month - origin_month;
    if (index >= 0 && index < month_count) {
      out[static_cast<std::size_t>(index)] += count;
    }
  }
  return out;
}

}  // namespace

faultsim::ObservedMode FaultCoalescer::Classify(const Group& group) const noexcept {
  using faultsim::ObservedMode;
  if (group.error_count == 0) return ObservedMode::kUnclassified;
  const double theta = options_.dominance_fraction;
  const bool addr_dominant =
      group.addresses.size() == 1 || TopShare(group.addresses, group.error_count) >= theta;
  const bool col_dominant =
      group.columns.size() == 1 || TopShare(group.columns, group.error_count) >= theta;
  const bool bit_dominant =
      group.bits.size() == 1 || TopShare(group.bits, group.error_count) >= theta;

  if (addr_dominant) {
    return bit_dominant ? ObservedMode::kSingleBit : ObservedMode::kSingleWord;
  }
  if (col_dominant && bit_dominant) return ObservedMode::kSingleColumn;
  if (bit_dominant) {
    // Many columns, one failing bit: a word-line (row) signature.  Platforms
    // that expose rows can confirm (distinct_rows == 1); Astra cannot (§3.2).
    return ObservedMode::kUnattributedRowLike;
  }
  return ObservedMode::kSingleBank;
}

void FaultCoalescer::EmitGroup(const std::uint64_t key, const Group& group,
                               const std::int64_t origin_month,
                               const int month_count,
                               std::vector<CoalescedFault>& out) const {
  const auto node = static_cast<NodeId>(key >> 16);
  const auto slot = static_cast<DimmSlot>((key >> 8) & 0xFF);
  const auto rank = static_cast<RankId>((key >> 6) & 0x3);
  const auto bank = static_cast<BankId>(key & 0x3F);

  const faultsim::ObservedMode mode = Classify(group);
  const bool decompose = mode == faultsim::ObservedMode::kSingleBank &&
                         !group.detail_overflow &&
                         group.addresses.size() <= options_.decompose_address_limit;

  auto base_fault = [&] {
    CoalescedFault fault;
    fault.node = node;
    fault.slot = slot;
    fault.socket = SocketOfSlot(slot);
    fault.rank = rank;
    fault.bank = bank;
    return fault;
  };

  if (!decompose) {
    CoalescedFault fault = base_fault();
    fault.mode = mode;
    fault.error_count = group.error_count;
    fault.distinct_addresses = static_cast<std::uint32_t>(group.addresses.size());
    fault.distinct_columns = static_cast<std::uint32_t>(group.columns.size());
    fault.distinct_bits = static_cast<std::uint32_t>(group.bits.size());
    fault.distinct_rows = static_cast<std::uint32_t>(group.rows.size());
    fault.first_seen = group.first_seen;
    fault.last_seen = group.last_seen;
    fault.anchor_address = group.anchor_address;
    fault.anchor_bit = group.anchor_bit;
    fault.monthly_errors = RemapMonthly(group.monthly, origin_month, month_count);
    out.push_back(std::move(fault));
    return;
  }

  // Incoherent multi-address / multi-bit pattern over a handful of
  // addresses: independent cell faults sharing a bank.  Emit one fault per
  // address, in canonical (address) order so output is independent of the
  // record order the caller happened to feed.
  std::vector<const AddressDetail*> details;
  details.reserve(group.details.size());
  for (const AddressDetail& d : group.details) details.push_back(&d);
  std::sort(details.begin(), details.end(),
            [](const AddressDetail* a, const AddressDetail* b) {
              return a->address < b->address;
            });
  for (const AddressDetail* detail : details) {
    CoalescedFault fault = base_fault();
    fault.mode = detail->bits.size() == 1 ? faultsim::ObservedMode::kSingleBit
                                          : faultsim::ObservedMode::kSingleWord;
    fault.error_count = detail->error_count;
    fault.distinct_addresses = 1;
    fault.distinct_columns = 1;
    fault.distinct_bits = static_cast<std::uint32_t>(detail->bits.size());
    fault.distinct_rows = 0;
    fault.first_seen = detail->first_seen;
    fault.last_seen = detail->last_seen;
    fault.anchor_address = detail->address;
    fault.anchor_bit = detail->anchor_bit;
    fault.monthly_errors = RemapMonthly(detail->monthly, origin_month, month_count);
    out.push_back(std::move(fault));
  }
}

CoalesceResult FaultCoalescer::Finalize(const SimTime origin,
                                        const int month_count) const {
  CoalesceResult result;
  result.total_errors = total_errors_;
  result.skipped_records = skipped_records_;
  result.faults.reserve(groups_.size());

  const std::int64_t origin_month = AbsoluteCalendarMonth(origin);
  // Deterministic iteration order regardless of hash layout.
  for (const std::uint64_t key : SortedKeys(groups_)) {
    EmitGroup(key, groups_.at(key), origin_month, month_count, result.faults);
  }
  return result;
}

void FaultCoalescer::MergeGroup(Group& into, const Group& from) {
  into.error_count += from.error_count;
  into.first_seen = std::min(into.first_seen, from.first_seen);
  into.last_seen = std::max(into.last_seen, from.last_seen);
  // Anchors: `into` holds the earlier shard in index order, so its first
  // observation is the global first — keep its anchor fields.
  // astra-lint: allow(det-unordered-iter): keyed += is commutative.
  for (const auto& [addr, count] : from.addresses) into.addresses[addr] += count;
  // astra-lint: allow(det-unordered-iter): keyed += is commutative.
  for (const auto& [col, count] : from.columns) into.columns[col] += count;
  // astra-lint: allow(det-unordered-iter): keyed += is commutative.
  for (const auto& [bit, count] : from.bits) into.bits[bit] += count;
  // astra-lint: allow(det-unordered-iter): set union is order-independent.
  into.rows.insert(from.rows.begin(), from.rows.end());
  for (const auto& [month, count] : from.monthly) into.monthly[month] += count;

  if (!into.detail_overflow && !from.detail_overflow) {
    for (const AddressDetail& d : from.details) {
      auto it = std::find_if(into.details.begin(), into.details.end(),
                             [&](const AddressDetail& mine) {
                               return mine.address == d.address;
                             });
      if (it == into.details.end()) {
        into.details.push_back(d);
      } else {
        it->error_count += d.error_count;
        it->first_seen = std::min(it->first_seen, d.first_seen);
        it->last_seen = std::max(it->last_seen, d.last_seen);
        // astra-lint: allow(det-unordered-iter): set union is order-independent.
        it->bits.insert(d.bits.begin(), d.bits.end());
        for (const auto& [month, count] : d.monthly) it->monthly[month] += count;
      }
    }
  }
  // Overflow is monotone in the serial pass (details are dropped the moment
  // distinct addresses exceed the limit and never revived), so the merged
  // group overflows iff the union of addresses exceeds the limit — which an
  // overflowed input shard already implies.
  if (into.detail_overflow || from.detail_overflow ||
      into.addresses.size() > options_.decompose_address_limit) {
    into.detail_overflow = true;
    into.details.clear();
    into.details.shrink_to_fit();
  }
}

bool FaultCoalescer::MergeFrom(const FaultCoalescer& other) {
  if (&other == this) return false;
  if (!(options_ == other.options_)) return false;
  total_errors_ += other.total_errors_;
  skipped_records_ += other.skipped_records_;
  for (const std::uint64_t key : SortedKeys(other.groups_)) {
    const Group& from = other.groups_.at(key);
    const auto [it, inserted] = groups_.try_emplace(key);
    if (inserted) {
      it->second = from;
    } else {
      MergeGroup(it->second, from);
    }
  }
  return true;
}

CoalesceResult FaultCoalescer::Coalesce(std::span<const logs::MemoryErrorRecord> records,
                                        const CoalesceOptions& options,
                                        const DataQuality* quality) {
  FaultCoalescer coalescer(options);
  for (const auto& record : records) coalescer.Add(record);
  CoalesceResult result = coalescer.Finalize();
  AttachIngestCaveats(result, quality);
  return result;
}

void AttachIngestCaveats(CoalesceResult& result, const DataQuality* quality) {
  if (quality == nullptr || !quality->Degraded()) return;
  result.caveats = quality->Caveats();
  if (quality->duplicates_removed > 0) {
    result.caveats.push_back(
        "duplicate telemetry was removed before coalescing; duplication that "
        "predates collection would still inflate per-fault error counts");
  }
}

namespace {

void PutMonthly(binio::Writer& writer,
                const std::map<std::int64_t, std::uint32_t>& monthly) {
  writer.PutU64(monthly.size());
  for (const auto& [month, count] : monthly) {
    writer.PutI64(month);
    writer.PutU32(count);
  }
}

bool GetMonthly(binio::Reader& reader,
                std::map<std::int64_t, std::uint32_t>& monthly) {
  const std::uint64_t count = reader.GetU64();
  if (!reader.CanReadItems(count, sizeof(std::int64_t) + sizeof(std::uint32_t))) {
    return false;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::int64_t month = reader.GetI64();
    monthly[month] = reader.GetU32();
  }
  return reader.Ok();
}

}  // namespace

void FaultCoalescer::Snapshot(binio::Writer& writer) const {
  writer.PutU64(total_errors_);
  writer.PutU64(skipped_records_);
  writer.PutU64(groups_.size());
  for (const std::uint64_t key : SortedKeys(groups_)) {
    const Group& group = groups_.at(key);
    writer.PutU64(key);
    writer.PutU64(group.error_count);
    writer.PutI64(group.first_seen.Seconds());
    writer.PutI64(group.last_seen.Seconds());
    writer.PutU64(group.anchor_address);
    writer.PutI32(group.anchor_bit);
    writer.PutBool(group.detail_overflow);

    writer.PutU64(group.addresses.size());
    for (const std::uint64_t addr : SortedKeys(group.addresses)) {
      writer.PutU64(addr);
      writer.PutU64(group.addresses.at(addr));
    }
    writer.PutU64(group.columns.size());
    for (const std::uint32_t col : SortedKeys(group.columns)) {
      writer.PutU32(col);
      writer.PutU64(group.columns.at(col));
    }
    writer.PutU64(group.bits.size());
    for (const std::uint32_t bit : SortedKeys(group.bits)) {
      writer.PutU32(bit);
      writer.PutU64(group.bits.at(bit));
    }
    const std::vector<std::uint32_t> sorted_rows = SortedValues(group.rows);
    writer.PutU64(sorted_rows.size());
    for (const std::uint32_t row : sorted_rows) writer.PutU32(row);
    PutMonthly(writer, group.monthly);

    // Details sorted by address: insertion order only reflects the record
    // order already consumed, and EmitGroup re-sorts before use anyway.
    std::vector<const AddressDetail*> details;
    details.reserve(group.details.size());
    for (const AddressDetail& d : group.details) details.push_back(&d);
    std::sort(details.begin(), details.end(),
              [](const AddressDetail* a, const AddressDetail* b) {
                return a->address < b->address;
              });
    writer.PutU64(details.size());
    for (const AddressDetail* d : details) {
      writer.PutU64(d->address);
      writer.PutU64(d->error_count);
      writer.PutI64(d->first_seen.Seconds());
      writer.PutI64(d->last_seen.Seconds());
      writer.PutI32(d->anchor_bit);
      const std::vector<std::uint32_t> sorted_bits = SortedValues(d->bits);
      writer.PutU64(sorted_bits.size());
      for (const std::uint32_t bit : sorted_bits) writer.PutU32(bit);
      PutMonthly(writer, d->monthly);
    }
  }
}

bool FaultCoalescer::Restore(binio::Reader& reader) {
  groups_.clear();
  total_errors_ = 0;
  skipped_records_ = 0;

  const std::uint64_t total_errors = reader.GetU64();
  const std::uint64_t skipped = reader.GetU64();
  const std::uint64_t group_count = reader.GetU64();
  // Smallest possible group encoding is well over 8 bytes; 8 is enough to
  // reject hostile counts before the reserve below.
  if (!reader.CanReadItems(group_count, 8)) return false;
  groups_.reserve(static_cast<std::size_t>(group_count));

  for (std::uint64_t g = 0; g < group_count; ++g) {
    const std::uint64_t key = reader.GetU64();
    Group group;
    group.error_count = reader.GetU64();
    group.first_seen = SimTime(reader.GetI64());
    group.last_seen = SimTime(reader.GetI64());
    group.anchor_address = reader.GetU64();
    group.anchor_bit = reader.GetI32();
    group.detail_overflow = reader.GetBool();

    const std::uint64_t addr_count = reader.GetU64();
    if (!reader.CanReadItems(addr_count, 16)) break;
    group.addresses.Reserve(static_cast<std::size_t>(addr_count));
    for (std::uint64_t i = 0; i < addr_count; ++i) {
      const std::uint64_t addr = reader.GetU64();
      group.addresses[addr] = reader.GetU64();
    }
    const std::uint64_t col_count = reader.GetU64();
    if (!reader.CanReadItems(col_count, 12)) break;
    group.columns.Reserve(static_cast<std::size_t>(col_count));
    for (std::uint64_t i = 0; i < col_count; ++i) {
      const std::uint32_t col = reader.GetU32();
      group.columns[col] = reader.GetU64();
    }
    const std::uint64_t bit_count = reader.GetU64();
    if (!reader.CanReadItems(bit_count, 12)) break;
    group.bits.Reserve(static_cast<std::size_t>(bit_count));
    for (std::uint64_t i = 0; i < bit_count; ++i) {
      const std::uint32_t bit = reader.GetU32();
      group.bits[bit] = reader.GetU64();
    }
    const std::uint64_t row_count = reader.GetU64();
    if (!reader.CanReadItems(row_count, sizeof(std::uint32_t))) break;
    group.rows.reserve(static_cast<std::size_t>(row_count));
    for (std::uint64_t i = 0; i < row_count; ++i) {
      group.rows.insert(reader.GetU32());
    }
    if (!GetMonthly(reader, group.monthly)) break;

    const std::uint64_t detail_count = reader.GetU64();
    if (!reader.CanReadItems(detail_count, 8)) break;
    group.details.reserve(static_cast<std::size_t>(detail_count));
    for (std::uint64_t i = 0; i < detail_count; ++i) {
      AddressDetail detail;
      detail.address = reader.GetU64();
      detail.error_count = reader.GetU64();
      detail.first_seen = SimTime(reader.GetI64());
      detail.last_seen = SimTime(reader.GetI64());
      detail.anchor_bit = reader.GetI32();
      const std::uint64_t dbits = reader.GetU64();
      if (!reader.CanReadItems(dbits, sizeof(std::uint32_t))) break;
      detail.bits.reserve(static_cast<std::size_t>(dbits));
      for (std::uint64_t b = 0; b < dbits; ++b) {
        detail.bits.insert(reader.GetU32());
      }
      if (!GetMonthly(reader, detail.monthly)) break;
      group.details.push_back(std::move(detail));
    }
    if (!reader.Ok()) break;
    groups_.emplace(key, std::move(group));
  }

  if (!reader.Ok()) {
    groups_.clear();
    return false;
  }
  total_errors_ = total_errors;
  skipped_records_ = skipped;
  return true;
}

std::vector<std::uint64_t> CoalesceResult::ErrorsPerFault() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(faults.size());
  for (const auto& fault : faults) counts.push_back(fault.error_count);
  return counts;
}

std::uint64_t CoalesceResult::ErrorsOfMode(faultsim::ObservedMode mode) const noexcept {
  std::uint64_t total = 0;
  for (const auto& fault : faults) {
    if (fault.mode == mode) total += fault.error_count;
  }
  return total;
}

std::uint64_t CoalesceResult::FaultsOfMode(faultsim::ObservedMode mode) const noexcept {
  std::uint64_t total = 0;
  for (const auto& fault : faults) {
    if (fault.mode == mode) ++total;
  }
  return total;
}

}  // namespace astra::core
