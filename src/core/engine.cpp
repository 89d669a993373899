#include "core/engine.hpp"

#include <algorithm>

#include "faultsim/fleet.hpp"
#include "util/parallel.hpp"

namespace astra::core {

static_assert(AnalyzerEngine<AnalysisEngineSet>);

AnalysisEngineSet::AnalysisEngineSet(const EngineSetConfig& config,
                                     std::uint64_t first_sequence)
    : config_(config),
      coalescer_(config.coalesce),
      predictor_(config.predictor),
      next_seq_(first_sequence) {}

void AnalysisEngineSet::ObserveMemory(const logs::MemoryErrorRecord& record) {
  const std::uint64_t seq = next_seq_++;
  coalescer_.Observe(record, seq);
  temporal_.Observe(record, seq);
  predictor_.Observe(record, seq);
  ++delivered_;
  max_node_ = std::max(max_node_, record.node);
  if (!any_) {
    any_ = true;
    lo_ = hi_ = record.timestamp;
  } else {
    lo_ = std::min(lo_, record.timestamp);
    hi_ = std::max(hi_, record.timestamp);
  }
}

void AnalysisEngineSet::ObserveMemoryBatch(
    std::span<const logs::MemoryErrorRecord> batch) {
  if (batch.empty()) return;
  const std::uint64_t first_seq = next_seq_;
  // Engine-wise delivery: each member sees the whole span in record order,
  // so its state equals the per-record fan-out's (engines never observe each
  // other).  The set's own bookkeeping folds in one tight pass.
  coalescer_.ObserveBatch(batch, first_seq);
  temporal_.ObserveBatch(batch, first_seq);
  predictor_.ObserveBatch(batch, first_seq);
  next_seq_ += batch.size();
  delivered_ += batch.size();
  if (!any_) {
    any_ = true;
    lo_ = hi_ = batch.front().timestamp;
  }
  for (const auto& record : batch) {
    max_node_ = std::max(max_node_, record.node);
    lo_ = std::min(lo_, record.timestamp);
    hi_ = std::max(hi_, record.timestamp);
  }
}

void AnalysisEngineSet::ObserveHet(const logs::HetRecord& record) {
  dues_.Observe(record, 0);
}

bool AnalysisEngineSet::MergeFrom(const AnalysisEngineSet& other) {
  if (&other == this) return false;
  if (!(config_ == other.config_)) return false;
  // Past the guards the member merges cannot fail (equal configs, distinct
  // operands); run them all so the set never ends up partially merged.
  bool ok = coalescer_.MergeFrom(other.coalescer_);
  ok &= temporal_.MergeFrom(other.temporal_);
  ok &= predictor_.MergeFrom(other.predictor_);
  ok &= dues_.MergeFrom(other.dues_);

  delivered_ += other.delivered_;
  next_seq_ = std::max(next_seq_, other.next_seq_);
  max_node_ = std::max(max_node_, other.max_node_);
  if (other.any_) {
    if (!any_) {
      any_ = true;
      lo_ = other.lo_;
      hi_ = other.hi_;
    } else {
      lo_ = std::min(lo_, other.lo_);
      hi_ = std::max(hi_, other.hi_);
    }
  }
  return ok;
}

void AnalysisEngineSet::Snapshot(binio::Writer& writer) const {
  coalescer_.Snapshot(writer);
  temporal_.Snapshot(writer);
  predictor_.Snapshot(writer);
  dues_.Snapshot(writer);
  writer.PutU64(next_seq_);
  writer.PutU64(delivered_);
  writer.PutBool(any_);
  writer.PutI32(max_node_);
  writer.PutI64(lo_.Seconds());
  writer.PutI64(hi_.Seconds());
}

bool AnalysisEngineSet::Restore(binio::Reader& reader) {
  if (!coalescer_.Restore(reader) || !temporal_.Restore(reader) ||
      !predictor_.Restore(reader) || !dues_.Restore(reader)) {
    return false;
  }
  next_seq_ = reader.GetU64();
  delivered_ = reader.GetU64();
  any_ = reader.GetBool();
  max_node_ = reader.GetI32();
  lo_ = SimTime{reader.GetI64()};
  hi_ = SimTime{reader.GetI64()};
  if (!reader.Ok()) return false;
  // Re-encoding cannot show what no Observe produces: a set without records
  // keeps the fresh set's zeros, and one with records spans parsed records
  // only — a node the parser accepts and an ordered window of timestamps it
  // can produce.  Finalize sizes its series and node tallies from these.
  if (!any_) return delivered_ == 0 && max_node_ == 0 && lo_ == SimTime{} && hi_ == SimTime{};
  return max_node_ >= 0 && max_node_ < kNumNodes && lo_ <= hi_ &&
         lo_ >= SimTime::EarliestParsed() && hi_ <= SimTime::LatestParsed();
}

namespace {

// The context over records spanning [lo, hi] on node ids up to `max_node`,
// with the earliest HET event at `het_start`.
EngineContext ContextOf(SimTime lo, SimTime hi, NodeId max_node, SimTime het_start) {
  EngineContext ctx;
  ctx.window = TimeWindow{lo, hi.AddSeconds(1)};
  ctx.node_span = static_cast<int>(max_node) + 1;
  ctx.month_count = CalendarMonthIndex(ctx.window.begin, ctx.window.end) + 1;
  ctx.het_start = het_start;
  return ctx;
}

// The earliest HET timestamp, `earliest` when none is earlier.
SimTime EarliestHet(std::span<const logs::HetRecord> records, SimTime earliest) {
  for (const auto& record : records) earliest = std::min(earliest, record.timestamp);
  return earliest;
}

}  // namespace

EngineContext AnalysisEngineSet::InferredContext() const {
  return ContextOf(lo_, hi_, max_node_, EarliestHet(dues_.Records(), hi_));
}

EngineFragment AnalysisEngineSet::Fragment() const {
  EngineFragment fragment;
  fragment.faults = coalescer_.Finalize();
  fragment.verdicts = predictor_.Verdicts();
  fragment.months = temporal_.Months();
  fragment.het = dues_.Records();
  fragment.delivered = delivered_;
  fragment.any = any_;
  fragment.max_node = max_node_;
  fragment.lo = lo_;
  fragment.hi = hi_;
  return fragment;
}

AnalysisArtifacts AnalysisEngineSet::Finalize(const EngineContext& ctx,
                                              const DataQuality* quality) const {
  const EngineFragment fragment = Fragment();
  const EngineFragment* const own[] = {&fragment};
  return FinalizeFragments(own, ctx, config_.predictor, quality);
}

EngineContext InferContext(std::span<const EngineFragment* const> fragments) {
  // MergeFrom's extent fold, in node order.
  bool any = false;
  NodeId max_node = 0;
  SimTime lo;
  SimTime hi;
  for (const EngineFragment* fragment : fragments) {
    max_node = std::max(max_node, fragment->max_node);
    if (!fragment->any) continue;
    lo = any ? std::min(lo, fragment->lo) : fragment->lo;
    hi = any ? std::max(hi, fragment->hi) : fragment->hi;
    any = true;
  }
  SimTime het_start = hi;
  for (const EngineFragment* fragment : fragments) {
    het_start = EarliestHet(fragment->het, het_start);
  }
  return ContextOf(lo, hi, max_node, het_start);
}

AnalysisArtifacts FinalizeFragments(std::span<const EngineFragment* const> fragments,
                                    const EngineContext& ctx,
                                    const PredictorConfig& predictor,
                                    const DataQuality* quality) {
  AnalysisArtifacts artifacts;
  artifacts.node_span = ctx.node_span;
  artifacts.series = EmptyMonthlySeries(ctx.window.begin, ctx.month_count);
  std::size_t fault_count = 0;
  std::size_t verdict_count = 0;
  std::size_t het_count = 0;
  for (const EngineFragment* fragment : fragments) {
    fault_count += fragment->faults.faults.size();
    verdict_count += fragment->verdicts.size();
    het_count += fragment->het.size();
  }
  std::vector<DimmVerdict> verdicts;
  std::vector<logs::HetRecord> het;
  artifacts.faults.faults.reserve(fault_count);
  verdicts.reserve(verdict_count);
  het.reserve(het_count);
  for (const EngineFragment* fragment : fragments) {
    artifacts.record_count += static_cast<std::size_t>(fragment->delivered);
    const CoalesceResult& faults = fragment->faults;
    artifacts.faults.faults.insert(artifacts.faults.faults.end(),
                                   faults.faults.begin(), faults.faults.end());
    artifacts.faults.total_errors += faults.total_errors;
    artifacts.faults.skipped_records += faults.skipped_records;
    verdicts.insert(verdicts.end(), fragment->verdicts.begin(),
                    fragment->verdicts.end());
    het.insert(het.end(), fragment->het.begin(), fragment->het.end());
    AddMonths(artifacts.series, fragment->months);
  }

  AttachIngestCaveats(artifacts.faults, quality);
  artifacts.positions = AnalyzePositions(artifacts.faults, ctx.node_span, quality);
  const TimeWindow recording{ctx.het_start, ctx.window.end};
  artifacts.dues = AnalyzeUncorrectable(het, recording,
                                        ctx.node_span * kDimmSlotsPerNode, quality);
  artifacts.prediction = EvaluateVerdicts(verdicts, predictor);
  return artifacts;
}

AnalysisArtifacts BuildAnalysisArtifacts(
    std::span<const logs::MemoryErrorRecord> records,
    std::span<const logs::HetRecord> het, int node_span, TimeWindow window,
    SimTime het_start, const DataQuality* quality, unsigned threads) {
  const EngineSetConfig config;
  AnalysisEngineSet set = ShardedReduce<AnalysisEngineSet>(
      records.size(), ResolveThreadCount(threads),
      [&config](std::size_t first) { return AnalysisEngineSet(config, first); },
      [&records](AnalysisEngineSet& shard, std::size_t begin, std::size_t end) {
        shard.ObserveMemoryBatch(records.subspan(begin, end - begin));
      });
  // The HET stream is tiny (DUEs are rare); observed serially after the
  // reduction.
  for (const auto& record : het) set.ObserveHet(record);

  EngineContext ctx;
  ctx.window = window;
  ctx.het_start = het_start;
  ctx.node_span = node_span;
  ctx.month_count = CalendarMonthIndex(window.begin, window.end) + 1;
  return set.Finalize(ctx, quality);
}

AnalysisArtifacts AnalyzeCampaignResult(const faultsim::CampaignResult& result,
                                        const faultsim::CampaignConfig& config,
                                        unsigned threads) {
  return BuildAnalysisArtifacts(result.memory_errors, result.het_records,
                                config.node_count, config.window,
                                config.het_firmware_start, nullptr, threads);
}

}  // namespace astra::core
