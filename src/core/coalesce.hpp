// Fault coalescing and mode classification — the paper's central
// methodological move (§3.2): "not properly accounting for faults can lead
// to erroneous conclusions".  Raw CE records are ERRORS; the underlying
// defects are FAULTS.  This pass groups the error stream into faults and
// classifies each fault's mode from the observable evidence.
//
// Grouping key: (node, slot, rank, bank).  Correctable error streams on a
// SEC-DED machine cannot span multiple banks from one fault (multi-bank
// corruption exceeds SEC-DED's correction ability and becomes a DUE, §3.2),
// so the bank is the natural coalescing granule; like all log-based studies,
// two independent faults in the SAME bank of the same rank merge — a known
// and accepted limitation of the methodology.
//
// Classification evidence per group (Astra conditions):
//  - the record's explicit fields: slot, rank, bank, recorded bit position
//    (vendor encoding is consistent per DIMM, so equal recorded values imply
//    equal true bit positions — §3.2 footnote);
//  - the physical address, from which the COLUMN is decodable but the ROW is
//    not (§3.2: "the system does not provide proper row information").
//
// Decision rule (per bank group), using DOMINANT-pattern shares so that a
// prolific fault is not misclassified merely because an unrelated cell fault
// shares its bank (fault-prone DIMMs host many independent faults, so
// same-bank collisions are common at fleet scale):
//
//   one address (or one address dominates)      -> single-bit / single-word
//   one column dominates + one bit dominates    -> single-column
//   one bit dominates, many columns             -> row-like (unconfirmable
//                                                  without row information)
//   incoherent but only a few addresses         -> DECOMPOSE into one cell
//                                                  fault per address
//   incoherent over many addresses              -> single-bank
//
// "Dominates" means the pattern accounts for at least `dominance_fraction`
// of the group's errors.  `decompose_address_limit` bounds how many distinct
// addresses still count as "a few colliding cell faults" rather than a
// genuine bank footprint.
//
// FaultCoalescer is an analyzer engine (core/engine.hpp): Observe/MergeFrom/
// Snapshot/Restore/Finalize.  Its state is the per-bank group maps and two
// record totals: the monthly CE series is the temporal engine's alone
// (core/temporal.hpp), and rows are never tracked, since Astra's records
// carry none (§3.2).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/data_quality.hpp"
#include "faultsim/fault_modes.hpp"
#include "logs/records.hpp"
#include "util/binio.hpp"
#include "util/flat_map.hpp"
#include "util/sim_time.hpp"

namespace astra::core {

struct CoalesceOptions {
  // Bank groups with more than one column, more than one bit, and at most
  // this many distinct addresses are split into per-address cell faults.
  std::uint32_t decompose_address_limit = 4;
  // Share of a group's errors a single address / column / bit must hold to
  // be treated as the group's defining pattern.
  double dominance_fraction = 0.85;

  friend bool operator==(const CoalesceOptions&, const CoalesceOptions&) = default;
};

// One coalesced fault: the observable aggregate of a defect's error stream.
struct CoalescedFault {
  NodeId node = 0;
  SocketId socket = 0;
  DimmSlot slot = DimmSlot::A;
  RankId rank = 0;
  BankId bank = 0;

  faultsim::ObservedMode mode = faultsim::ObservedMode::kUnclassified;
  std::uint64_t error_count = 0;
  std::uint32_t distinct_addresses = 0;
  std::uint32_t distinct_columns = 0;
  std::uint32_t distinct_bits = 0;   // distinct recorded bit positions
  SimTime first_seen;
  SimTime last_seen;

  // Representative locus (first error observed).
  std::uint64_t anchor_address = 0;
  std::int32_t anchor_bit = 0;
};

struct CoalesceResult {
  std::vector<CoalescedFault> faults;
  std::uint64_t total_errors = 0;      // error records consumed
  std::uint64_t skipped_records = 0;   // DUE records, never grouped

  // Data-quality caveats inherited from the ingest (empty on clean input).
  // Duplicated or quarantined telemetry biases error counts and fault
  // classification; callers must surface these alongside the results.
  std::vector<std::string> caveats;

  // Errors-per-fault samples (same order as `faults`) — Fig. 4b's violin.
  [[nodiscard]] std::vector<std::uint64_t> ErrorsPerFault() const;

  // Total errors attributed to faults of a given observed mode.
  [[nodiscard]] std::uint64_t ErrorsOfMode(faultsim::ObservedMode mode) const noexcept;
  [[nodiscard]] std::uint64_t FaultsOfMode(faultsim::ObservedMode mode) const noexcept;
};

// Attach the ingest-damage caveats the one-shot Coalesce() adds to a result
// finalized by hand (engine drivers finalize a live coalescer and must
// disclose the same damage the one-shot path would).
void AttachIngestCaveats(CoalesceResult& result, const DataQuality* quality);

class FaultCoalescer {
 public:
  explicit FaultCoalescer(const CoalesceOptions& options = {}) : options_(options) {}

  // Records may be in any order; call Add repeatedly, then Finalize.  Every
  // CE joins exactly one group; DUEs are counted as skipped and never
  // grouped (the paper's fault analysis is CE-based; DUEs are analysed
  // separately in §3.5).
  void Add(const logs::MemoryErrorRecord& record);

  // Engine-contract alias: coalescing is order-insensitive, so the global
  // sequence number is unused.
  void Observe(const logs::MemoryErrorRecord& record, std::uint64_t /*seq*/) {
    Add(record);
  }

  // Batched observation (core/engine.hpp): identical state to calling Add
  // per record — the batch walk just reuses the previous record's group
  // slot, since error streams cluster heavily by DIMM.
  void ObserveBatch(std::span<const logs::MemoryErrorRecord> batch,
                    std::uint64_t first_seq);

  // Fold another coalescer's accumulated state into this one.  Merging is
  // associative and, for the anchor fields (first error observed), drivers
  // must merge in shard INDEX order with `this` holding the earlier shard —
  // then every merged group's anchors equal the serial first-observation
  // anchors.  False (state unchanged) when the options differ.
  [[nodiscard]] bool MergeFrom(const FaultCoalescer& other);

  // Classify every group into faults, in sorted group-key order.
  // Non-consuming: the engine can keep observing afterwards (the streaming
  // driver reports mid-campaign).
  [[nodiscard]] CoalesceResult Finalize() const;

  // Convenience one-shot API.  When `quality` is provided (records came from
  // a hardened dataset ingest), its damage summary is turned into explicit
  // caveats on the result instead of being silently ignored.
  [[nodiscard]] static CoalesceResult Coalesce(
      std::span<const logs::MemoryErrorRecord> records,
      const CoalesceOptions& options = {}, const DataQuality* quality = nullptr);

  // Checkpoint support: serialize the accumulated grouping state
  // deterministically (sorted keys, sorted map entries) so a restored
  // coalescer finalizes to the identical result.  Options are NOT
  // serialized — Restore must target a coalescer constructed with the same
  // options the snapshotted one used; the checkpoint envelope's version
  // field gates format compatibility.
  void Snapshot(binio::Writer& writer) const;
  // Decodes into a freshly constructed coalescer.  False on a malformed
  // payload, a group key outside the machine, or a repeated detail address
  // (Snapshot's by-address sort would write either back unchanged).
  [[nodiscard]] bool Restore(binio::Reader& reader);

 private:
  // Per-address evidence, kept only while the group is small enough to be a
  // decomposition candidate.
  struct AddressDetail {
    std::uint64_t address = 0;
    std::unordered_set<std::uint32_t> bits;
    std::uint64_t error_count = 0;
    SimTime first_seen;
    SimTime last_seen;
    std::int32_t anchor_bit = 0;
  };

  struct Group {
    // Flat counter maps (util/flat_map.hpp): contiguous slots, no per-key
    // node allocation on the per-record increment path.  Iteration order is
    // unspecified; Snapshot/Classify walk sorted keys or reduce commutatively.
    FlatCountMap<std::uint64_t> addresses;  // addr -> errors
    FlatCountMap<std::uint32_t> columns;    // col  -> errors
    FlatCountMap<std::uint32_t> bits;       // bit  -> errors
    // The largest count in each map, kept current by every update so that
    // Classify reads three numbers instead of walking the maps.  Derived
    // state: never serialized, rebuilt by Restore.
    std::uint64_t top_address = 0;
    std::uint64_t top_column = 0;
    std::uint64_t top_bit = 0;
    std::uint64_t error_count = 0;
    SimTime first_seen;
    SimTime last_seen;
    std::uint64_t anchor_address = 0;
    std::int32_t anchor_bit = 0;
    std::vector<AddressDetail> details;  // valid while !detail_overflow
    bool detail_overflow = false;
  };

  [[nodiscard]] static std::uint64_t GroupKey(const logs::MemoryErrorRecord& r) noexcept;
  [[nodiscard]] faultsim::ObservedMode Classify(const Group& group) const noexcept;
  void EmitGroup(std::uint64_t key, const Group& group,
                 std::vector<CoalescedFault>& out) const;
  void MergeGroup(Group& into, const Group& from);
  void AddToGroup(Group& group, const logs::MemoryErrorRecord& record);

  CoalesceOptions options_;
  std::unordered_map<std::uint64_t, Group> groups_;
  std::uint64_t total_errors_ = 0;
  std::uint64_t skipped_records_ = 0;
};

}  // namespace astra::core
