// The single incremental analysis core.  Every analysis the report prints is an
// ENGINE honoring one contract, or is computed at Finalize from an engine's
// fragment (the positional verdicts and per-node CE counts come from the
// coalesced faults).  Engine state holds only what some driver renders.  The
// drivers — batch analyze, streaming watch, campaign trials and astra_serve —
// are thin shells over the same engines:
//
//   batch     = per-shard engine sets over contiguous record-index ranges,
//               reduced via MergeFrom in shard INDEX order (util/parallel.hpp
//               ShardedReduce); one shard is the plain in-order replay;
//   streaming = the same engine set fed by TailReader as records arrive,
//               checkpointed through Snapshot/Restore;
//   serving   = one engine set per node, each projected onto its own
//               EngineFragment, and the fleet step over the fragments in
//               node order (FinalizeFragments).
//
// The contract:
//
//   void Observe(const Record& record, std::uint64_t seq)
//       Fold one record into the engine state.  `seq` is the record's
//       GLOBAL stream index — the tie-break a stable time-sort applies at
//       equal timestamps.  Order-insensitive engines ignore it.
//   void ObserveBatch(std::span<const Record> batch, std::uint64_t first_seq)
//       (memory-record engines) Fold a contiguous run of records, leaving
//       exactly the state the per-record loop would:
//         for (i = 0; i < batch.size(); ++i) Observe(batch[i], first_seq + i);
//       A pure throughput override (hoisting per-record dispatch, caching
//       month bins, reusing the previous record's group slot), never a
//       semantic one, so the parity suites hold at any batching boundary.
//   [[nodiscard]] bool MergeFrom(const E& other)
//       Fold another engine's state into this one.  Associative; drivers
//       merge in shard index order with `this` holding the EARLIER shard,
//       which makes first-observation state (anchors) equal the serial
//       replay's.  False — with this engine unchanged — on a configuration
//       mismatch or self-merge.
//   void Snapshot(binio::Writer&) const / [[nodiscard]] bool Restore(binio::Reader&)
//       Deterministic byte serialization of the engine state (sorted keys,
//       ordered containers).  Restore decodes into a FRESHLY CONSTRUCTED
//       engine, false on a malformed payload; the checkpoint reader decides
//       acceptance (stream/checkpoint.hpp) and the owner resets
//       (StreamMonitor::Restore).  Configuration is not serialized: Restore
//       targets an engine constructed with the snapshotted one's config, and
//       the checkpoint envelope version gates format.
//   Finalize() / Verdicts() / Months() / Records() -> report fragment
//       Project the state onto the part of the analysis result that depends
//       only on the engine's own records: the coalesced faults, the
//       per-DIMM verdicts, the month counts, the HET records.  Const and
//       non-consuming — the streaming driver reports mid-campaign and keeps
//       observing.  No fragment depends on the window, origin or
//       populations: the FLEET STEP (FinalizeFragments) receives those as
//       finalize-time context, so the same observed state serves drivers
//       that learn the window up front and drivers that infer it after the
//       fact.  AnalysisEngineSet::Finalize is the fleet step over the set's
//       own fragment.
//
// Determinism rules the parity tests pin down: identical bytes from both
// drivers at any thread count requires (a) engine state that is a
// pure function of the observed multiset plus, for order-sensitive
// analyses, the global sequence numbers; (b) reductions in shard index
// order only; (c) iteration over ordered containers (or sorted keys)
// wherever floating-point accumulation order matters.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/coalesce.hpp"
#include "core/positional.hpp"
#include "core/predictor.hpp"
#include "core/temporal.hpp"
#include "core/uncorrectable.hpp"
#include "util/binio.hpp"
#include "util/sim_time.hpp"

namespace astra::core {

// The uniform four of the contract (ObserveBatch is memory-only, Finalize
// engine-specific).
template <typename E, typename Record = logs::MemoryErrorRecord>
concept AnalyzerEngine =
    std::movable<E> &&
    requires(E engine, const E& other, const Record& record, binio::Writer& writer,
             binio::Reader& reader) {
      { engine.Observe(record, std::uint64_t{0}) } -> std::same_as<void>;
      { engine.MergeFrom(other) } -> std::same_as<bool>;
      { std::as_const(engine).Snapshot(writer) } -> std::same_as<void>;
      { engine.Restore(reader) } -> std::same_as<bool>;
    };

static_assert(AnalyzerEngine<FaultCoalescer>);
static_assert(AnalyzerEngine<TemporalEngine>);
static_assert(AnalyzerEngine<PredictorEngine>);
static_assert(AnalyzerEngine<UncorrectableEngine, logs::HetRecord>);

// Finalize-time context shared by the report engines: the analysis window
// (month 0 of the series = window.begin's calendar month), the HET
// recording start, and the analysed populations.
struct EngineContext {
  TimeWindow window;
  SimTime het_start;
  int node_span = 0;
  int month_count = 0;
};

// Configuration for the engines a set carries.  MergeFrom and Restore
// require equal configs on both sides.
struct EngineSetConfig {
  CoalesceOptions coalesce;
  PredictorConfig predictor;

  friend bool operator==(const EngineSetConfig&, const EngineSetConfig&) = default;
};

// Everything the full reliability report prints, in one place: the fleet
// step's output.  Each field comes from one engine's fragment, except
// `positions`, which AnalyzePositions computes from `faults`.
struct AnalysisArtifacts {
  std::size_t record_count = 0;  // delivered memory records (CEs + DUEs)
  int node_span = 0;             // number of node ids analysed
  CoalesceResult faults;
  PositionalAnalysis positions;
  MonthlyErrorSeries series;
  UncorrectableAnalysis dues;
  PredictionEvaluation prediction;
};

// A set's report fragment: everything Finalize needs that depends only on
// the set's own records, and nothing that depends on the window or node
// span it is finalized under.  No key crosses nodes — coalescer groups are
// keyed (node, slot, rank, bank), predictor verdicts are per DIMM, and
// everything else is a sum — so the fragments of sets over disjoint node
// ranges, taken in node order, finalize to the bytes of their merged set.
struct EngineFragment {
  CoalesceResult faults;              // group-key order, both totals
  std::vector<DimmVerdict> verdicts;  // DIMM order
  MonthCounts months;
  std::vector<logs::HetRecord> het;   // observation order
  std::uint64_t delivered = 0;        // memory records observed
  bool any = false;                   // lo and hi hold record timestamps
  NodeId max_node = 0;
  SimTime lo;
  SimTime hi;
};

// The fleet step's context: what InferredContext derives from the union of
// the fragments' records.
[[nodiscard]] EngineContext InferContext(
    std::span<const EngineFragment* const> fragments);

// The fleet step over fragments in node order: concatenate the faults,
// attach the ingest caveats, tally positions, sum the month counts, replay
// the HET records appended in order, and aggregate the verdicts under
// `predictor` (the config every fragment was observed under).  `quality`
// threads ingest damage into every fragment's caveats.
[[nodiscard]] AnalysisArtifacts FinalizeFragments(
    std::span<const EngineFragment* const> fragments, const EngineContext& ctx,
    const PredictorConfig& predictor, const DataQuality* quality = nullptr);

// The report's engine set: the four engines whose fragments make up
// AnalysisArtifacts (the positional fragment is computed from the
// coalescer's faults), plus the window/span inference the streaming driver
// needs.  Itself an engine (the contract composes): Observe fans out to the
// members, MergeFrom/Snapshot/Restore delegate member-wise in fixed order.
class AnalysisEngineSet {
 public:
  // `first_sequence` seeds the global stream index of the next ObserveMemory
  // — per-shard sets pass their shard's first record index so sequence
  // numbers are globally consistent after the index-order reduction.
  explicit AnalysisEngineSet(const EngineSetConfig& config = {},
                             std::uint64_t first_sequence = 0);

  void ObserveMemory(const logs::MemoryErrorRecord& record);
  void ObserveHet(const logs::HetRecord& record);

  // Deliver a contiguous batch: identical final state to calling
  // ObserveMemory per record, but each member engine consumes the whole span
  // in one call (engines are independent, so engine-wise delivery reorders
  // nothing an engine can see).
  void ObserveMemoryBatch(std::span<const logs::MemoryErrorRecord> batch);

  // Contract form: deliver `record` AS global stream index `seq`.  The
  // streaming driver uses ObserveMemory and lets the set number its own
  // stream; a caller replaying an explicit indexing (the contract property
  // tests, a shard fed out-of-band) pins each record's index here.
  void Observe(const logs::MemoryErrorRecord& record, std::uint64_t seq) {
    next_seq_ = seq;
    ObserveMemory(record);
  }

  [[nodiscard]] bool MergeFrom(const AnalysisEngineSet& other);
  void Snapshot(binio::Writer& writer) const;
  [[nodiscard]] bool Restore(binio::Reader& reader);

  [[nodiscard]] std::uint64_t Delivered() const { return delivered_; }
  [[nodiscard]] const EngineSetConfig& Config() const { return config_; }

  // Context inferred from the records observed so far — node span from the
  // highest node id, window from the timestamp extremes, HET start from the
  // earliest HET event — exactly as the batch `analyze` derives them from an
  // ingested record set.
  [[nodiscard]] EngineContext InferredContext() const;

  // The members' report fragments and the set's record extent.
  // Non-consuming.
  [[nodiscard]] EngineFragment Fragment() const;

  // The fleet step over the set's own fragment.  Non-consuming; `quality`
  // threads ingest damage into every fragment's caveats.
  [[nodiscard]] AnalysisArtifacts Finalize(const EngineContext& ctx,
                                           const DataQuality* quality = nullptr) const;

 private:
  EngineSetConfig config_;

  FaultCoalescer coalescer_;
  TemporalEngine temporal_;
  PredictorEngine predictor_;
  UncorrectableEngine dues_;

  std::uint64_t next_seq_ = 0;   // global stream index of the next record
  std::uint64_t delivered_ = 0;  // memory records observed by THIS set
  bool any_ = false;
  NodeId max_node_ = 0;
  SimTime lo_;
  SimTime hi_;
};

// The batch pipeline: coalesce, positional, monthly series, DUE/FIT and the
// predictor over an ingested record set.  `quality` (optional) threads
// ingest damage through to every stage's caveats.  `threads` is the number
// of record-index shards, each replayed into its own engine set and reduced
// via MergeFrom in index order; one shard is the plain in-order replay.  The
// artifacts never depend on it (0 = hardware concurrency).
[[nodiscard]] AnalysisArtifacts BuildAnalysisArtifacts(
    std::span<const logs::MemoryErrorRecord> records,
    std::span<const logs::HetRecord> het, int node_span, TimeWindow window,
    SimTime het_start, const DataQuality* quality = nullptr,
    unsigned threads = 0);

}  // namespace astra::core

namespace astra::faultsim {
struct CampaignConfig;
struct CampaignResult;
}  // namespace astra::faultsim

namespace astra::core {

// The in-memory campaign trial path: feed a simulator result straight into
// the engine set (ObserveMemoryBatch over the record vectors, window and
// populations taken from the config) with no serialize-to-disk + re-parse
// round trip.  Byte-identical artifacts to `simulate` + `analyze` over the
// same campaign modulo the window inference analyze performs from record
// extremes; the campaign runner executes hundreds of trials through this
// path (bench_campaign quantifies the saving).
[[nodiscard]] AnalysisArtifacts AnalyzeCampaignResult(
    const faultsim::CampaignResult& result,
    const faultsim::CampaignConfig& config, unsigned threads = 0);

}  // namespace astra::core
