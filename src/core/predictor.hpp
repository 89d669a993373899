// DUE early-warning prediction from CE history — the operational payoff of
// fault-aware CE analysis.  §3.2 establishes that SEC-DED DUEs are the
// manifestation of multi-bit faults; the streams that precede them are
// visible in the CE log long before the uncorrectable read happens.  A
// predictor that flags at-risk DIMMs for proactive replacement (or page
// offlining) is the standard downstream use of studies like this one.
//
// The predictor is an ONLINE rule over the time-ordered record stream — it
// may only use information available strictly before the event it predicts,
// and the evaluator enforces that (a flag raised at or after the DIMM's
// first DUE does not count as a hit).
//
// Signals, in increasing specificity:
//   - raw CE volume on the DIMM (the classic ops rule of thumb);
//   - distinct failing addresses (footprint growth: column/row/bank faults);
//   - a multi-bit-word signature: >= 2 distinct bit positions at ONE
//     address — the direct precursor of a SEC-DED DUE.
//
// PredictorEngine is the single implementation (contract in
// core/engine.hpp).  It cannot assume the stream arrives time-sorted, so it
// tracks, per DIMM, the earliest (timestamp, sequence) MOMENT at which each
// rule would fire in a time-sorted replay: the rules are monotone (once true
// they stay true), so the flag time is exactly the minimum firing moment and
// the reason is the priority-ordered rule among those firing at that moment.
// Finalize is two steps: Verdicts walks each DIMM's state into its verdict,
// and EvaluateVerdicts aggregates verdicts from any number of engines over
// disjoint DIMMs.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "logs/records.hpp"
#include "util/binio.hpp"

namespace astra::core {

struct PredictorConfig {
  // Any enabled rule firing flags the DIMM.  Thresholds of 0 disable a rule.
  std::uint32_t ce_count_threshold = 0;          // e.g. 500
  std::uint32_t distinct_address_threshold = 0;  // e.g. 16
  bool flag_multibit_word_signature = true;
  // Required lead time: a flag counts as a true positive only if raised at
  // least this long before the DIMM's first DUE.
  std::int64_t lead_time_seconds = 3600;

  friend bool operator==(const PredictorConfig&, const PredictorConfig&) = default;
};

// The rule that first flagged a DIMM; at equal moments the earlier-listed
// rule wins.
enum class FlagRule : std::uint8_t {
  kNone,  // never flagged
  kMultibitWord,
  kCeVolume,
  kFootprint,
};

// One DIMM's outcome in the time-sorted replay, a pure function of that
// DIMM's own records.
struct DimmVerdict {
  std::int64_t dimm = 0;  // GlobalDimmIndex
  FlagRule rule = FlagRule::kNone;
  std::int64_t flagged_at = 0;  // seconds; meaningful when rule != kNone
  bool due_seen = false;
  std::int64_t first_due = 0;  // seconds; meaningful when due_seen
};

struct DimmFlag {
  NodeId node = 0;
  DimmSlot slot = DimmSlot::A;
  SimTime flagged_at;
  std::string reason;
};

struct PredictionEvaluation {
  std::vector<DimmFlag> flags;        // every flagged DIMM with reason
  std::size_t dimms_flagged = 0;
  std::size_t dimms_with_due = 0;     // DIMMs that logged >= 1 DUE
  std::size_t true_positives = 0;     // flagged with required lead time
  std::size_t late_flags = 0;         // flagged but after (or too close to) the DUE
  std::size_t false_positives = 0;    // flagged, never DUEd
  std::size_t missed = 0;             // DUEd, never flagged in time
  double median_lead_time_days = 0.0; // over true positives

  [[nodiscard]] double Precision() const noexcept {
    return dimms_flagged == 0 ? 0.0
                              : static_cast<double>(true_positives) /
                                    static_cast<double>(dimms_flagged);
  }
  [[nodiscard]] double Recall() const noexcept {
    return dimms_with_due == 0 ? 0.0
                               : static_cast<double>(true_positives) /
                                     static_cast<double>(dimms_with_due);
  }
};

class PredictorEngine {
 public:
  explicit PredictorEngine(const PredictorConfig& config = {})
      : config_(config) {}

  // `seq` is the record's global stream index — the tie-break the
  // time-sorted replay applies at equal timestamps (a batch stable sort by
  // timestamp orders records by exactly (timestamp, index)).
  void Observe(const logs::MemoryErrorRecord& record, std::uint64_t seq);

  // Batched observation (core/engine.hpp): record i carries sequence number
  // first_seq + i, so the state is identical to calling Observe per record.
  // The batch walk memoizes the previous record's DIMM state (the per-DIMM
  // std::map's nodes are pointer-stable), skipping the tree descent on
  // clustered streams.
  void ObserveBatch(std::span<const logs::MemoryErrorRecord> batch,
                    std::uint64_t first_seq);

  // Per-DIMM minima commute, and the CE-volume heap keeps the N smallest
  // moments of the union, so merging is associative and order-insensitive.
  // False (state unchanged) when the configs differ.
  [[nodiscard]] bool MergeFrom(const PredictorEngine& other);

  // Deterministic byte layout: DIMMs, then each DIMM's addresses, then each
  // address's bits in ascending order, heap serialized sorted.  The config
  // is NOT serialized; Restore must target a fresh engine constructed with
  // the same config.  False on a malformed payload or a CE heap longer than
  // the threshold; order and uniqueness are the checkpoint rule's
  // (stream/checkpoint.hpp).
  void Snapshot(binio::Writer& writer) const;
  [[nodiscard]] bool Restore(binio::Reader& reader);

  // The verdict of every DIMM that a rule flagged or that saw a DUE, in
  // DIMM order.  Non-consuming.
  [[nodiscard]] std::vector<DimmVerdict> Verdicts() const;

  // Reconstruct the evaluation of the time-sorted replay.  Non-consuming.
  [[nodiscard]] PredictionEvaluation Finalize() const;

 private:
  // A position in the time-sorted replay of the stream.
  struct Moment {
    std::int64_t ts = 0;
    std::uint64_t seq = 0;
    friend constexpr auto operator<=>(const Moment&, const Moment&) = default;
  };
  struct BitMinimum {
    std::uint64_t address = 0;
    std::int32_t bit = 0;
    // Position + 1 of the next entry with the same address (0 = none): an
    // address's first entry heads a chain through its other bits.
    std::uint32_t next_bit = 0;
    Moment first;  // earliest moment this (address, bit) was seen
  };
  struct DimmState {
    // One flat table of (address, bit) minima in arrival order, found
    // through `index`: open addressing over a power-of-two array of entry
    // position + 1 (0 = free), probed from the address's home slot, so an
    // address's bits share one probe run.  A copy, merge or free of the
    // state touches a few buffers, not a node per key.  Finalize walks the
    // address chains; Snapshot sorts a copy.
    std::vector<BitMinimum> minima;
    std::vector<std::uint32_t> index;
    // Max-heap of the `ce_count_threshold` smallest CE moments; its maximum
    // is the moment the volume rule fires.  Empty when the rule is disabled.
    std::vector<Moment> ce_smallest;
    bool due_seen = false;
    std::int64_t first_due = 0;

    // Keep the earlier of `moment` and the (address, bit) minimum.
    void NoteBit(std::uint64_t address, std::int32_t bit, Moment moment);
    // The index slot holding (address, bit), or the free slot ending its
    // run; `same_address` receives an entry of the address met on the way.
    [[nodiscard]] std::uint32_t& Slot(std::uint64_t address, std::int32_t bit,
                                      std::uint32_t& same_address);
  };

  void ObserveInDimm(DimmState& state, const logs::MemoryErrorRecord& record,
                     std::uint64_t seq);
  void MergeDimm(DimmState& into, const DimmState& from) const;

  PredictorConfig config_;
  std::map<std::int64_t, DimmState> dimms_;  // ordered: deterministic state
};

// The aggregate over verdicts in DIMM order: the counts, the flags sorted by
// (time, node, slot), and the median lead time of the true positives.  The
// verdicts of engines over disjoint DIMMs, concatenated in DIMM order,
// evaluate to their merged engine's Finalize.
[[nodiscard]] PredictionEvaluation EvaluateVerdicts(
    std::span<const DimmVerdict> verdicts, const PredictorConfig& config);

// Batch evaluation harness: a single PredictorEngine replay.  `records` may
// be in any order; delivery index is the tie-break for equal timestamps,
// matching a stable time-sort of the span.
[[nodiscard]] PredictionEvaluation EvaluatePredictor(
    std::span<const logs::MemoryErrorRecord> records, const PredictorConfig& config);

}  // namespace astra::core
