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
  *this = AnalysisEngineSet{config_};
  bool ok = coalescer_.Restore(reader) && temporal_.Restore(reader) &&
            predictor_.Restore(reader) && dues_.Restore(reader);
  next_seq_ = reader.GetU64();
  delivered_ = reader.GetU64();
  any_ = reader.GetBool();
  max_node_ = reader.GetI32();
  lo_ = SimTime{reader.GetI64()};
  hi_ = SimTime{reader.GetI64()};
  if (!ok || !reader.Ok()) {
    *this = AnalysisEngineSet{config_};
    return false;
  }
  return true;
}

EngineContext AnalysisEngineSet::InferredContext() const {
  EngineContext ctx;
  ctx.window = TimeWindow{lo_, hi_.AddSeconds(1)};
  ctx.node_span = static_cast<int>(max_node_) + 1;
  ctx.month_count = CalendarMonthIndex(ctx.window.begin, ctx.window.end) + 1;
  ctx.het_start = dues_.EarliestTimestamp(hi_);
  return ctx;
}

AnalysisArtifacts AnalysisEngineSet::Finalize(const EngineContext& ctx,
                                              const DataQuality* quality) const {
  AnalysisArtifacts artifacts;
  artifacts.record_count = static_cast<std::size_t>(delivered_);
  artifacts.node_span = ctx.node_span;

  artifacts.faults = coalescer_.Finalize(ctx.window.begin, ctx.month_count);
  AttachIngestCaveats(artifacts.faults, quality);
  artifacts.positions = AnalyzePositions(artifacts.faults, ctx.node_span, quality);
  artifacts.series =
      temporal_.Finalize(artifacts.faults, ctx.window.begin, ctx.month_count);
  const TimeWindow recording{ctx.het_start, ctx.window.end};
  artifacts.dues =
      dues_.Finalize(recording, ctx.node_span * kDimmSlotsPerNode, quality);
  artifacts.prediction = predictor_.Finalize();
  return artifacts;
}

AnalysisArtifacts BuildAnalysisArtifacts(
    std::span<const logs::MemoryErrorRecord> records,
    std::span<const logs::HetRecord> het, int node_span, TimeWindow window,
    SimTime het_start, const DataQuality* quality, unsigned threads) {
  const EngineSetConfig config;
  const unsigned resolved = ResolveThreadCount(threads);
  AnalysisEngineSet set(config);
  if (resolved <= 1 || records.size() < kParallelAnalysisMinItems) {
    set.ObserveMemoryBatch(records);
  } else {
    set = ShardedReduce<AnalysisEngineSet>(
        records.size(), resolved,
        [&config](std::size_t first) { return AnalysisEngineSet(config, first); },
        [&records](AnalysisEngineSet& shard, std::size_t begin, std::size_t end) {
          shard.ObserveMemoryBatch(records.subspan(begin, end - begin));
        });
  }
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
