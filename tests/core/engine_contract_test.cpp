// Engine-contract property suite (core/engine.hpp): every analysis engine
// must satisfy the same algebra the drivers rely on —
//
//   split/merge    Observe-all == split-at-EVERY-boundary + MergeFrom, down
//                  to identical Snapshot bytes (the parallel driver's
//                  correctness for any shard layout).
//   batch          per-record Observe up to EVERY boundary + one ObserveBatch
//                  for the rest == Observe-all, down to Snapshot bytes (the
//                  batched delivery analyze, watch and astra_serve use).
//   resume         a mid-stream Snapshot restored into a fresh engine and
//                  fed the remaining records lands on identical Snapshot
//                  bytes (the streaming driver's checkpoint correctness).
//   reject         the checkpoint rule (binio::DecodeCanonical, which
//                  ReadCheckpointFile applies) refuses every truncated
//                  snapshot, and keeps a damaged one only if it decodes and
//                  re-encodes to itself.  Resetting a refused restore is the
//                  owner's job (StreamMonitor::Restore, stream suites).
//   guards         MergeFrom refuses self-merge and config mismatches.
//
// The set-level tests additionally demand byte-identical RENDERED reports,
// and repeat the resume property over records ingested from datasets damaged
// by every corruption mode — the engines must uphold the contract on exactly
// the record streams a dirty production ingest would deliver.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/dataset.hpp"
#include "core/report.hpp"
#include "faultsim/fleet.hpp"
#include "logs/corruption.hpp"
#include "logs/serialize.hpp"
#include "scratch_path.hpp"
#include "util/binio.hpp"

namespace astra::core {
namespace {

template <typename Engine>
std::string SnapshotBytes(const Engine& engine) {
  std::string bytes;
  binio::Writer writer(bytes);
  engine.Snapshot(writer);
  return bytes;
}

// Property: serial replay and every two-way split produce identical state.
// `make` builds a fresh engine with the fixture's config; the second shard
// observes with the GLOBAL sequence indices, exactly as the parallel driver
// numbers its shards.
template <typename Engine, typename Record, typename Make>
void CheckSplitMergeEqualsSerial(Make make, const std::vector<Record>& records) {
  Engine serial = make();
  for (std::size_t i = 0; i < records.size(); ++i) {
    serial.Observe(records[i], i);
  }
  const std::string want = SnapshotBytes(serial);

  for (std::size_t cut = 0; cut <= records.size(); ++cut) {
    Engine left = make();
    Engine right = make();
    for (std::size_t i = 0; i < cut; ++i) left.Observe(records[i], i);
    for (std::size_t i = cut; i < records.size(); ++i) {
      right.Observe(records[i], i);
    }
    ASSERT_TRUE(left.MergeFrom(right)) << "cut at " << cut;
    ASSERT_EQ(SnapshotBytes(left), want) << "cut at " << cut;
  }
}

// Property: ObserveBatch leaves the state the per-record loop would.  At
// every cut the records before it go through Observe and the rest through
// one ObserveBatch numbered from the cut: a batch boundary may fall anywhere
// in the stream.
template <typename Engine, typename Make>
void CheckBatchEqualsPerRecord(Make make,
                               const std::vector<logs::MemoryErrorRecord>& records) {
  Engine serial = make();
  for (std::size_t i = 0; i < records.size(); ++i) serial.Observe(records[i], i);
  const std::string want = SnapshotBytes(serial);

  const std::span<const logs::MemoryErrorRecord> all(records);
  for (std::size_t cut = 0; cut <= records.size(); ++cut) {
    Engine engine = make();
    for (std::size_t i = 0; i < cut; ++i) engine.Observe(records[i], i);
    engine.ObserveBatch(all.subspan(cut), cut);
    ASSERT_EQ(SnapshotBytes(engine), want) << "cut at " << cut;
  }
}

// Property: Snapshot mid-stream, Restore into a fresh engine, feed the rest;
// both engines land on identical Snapshot bytes.
template <typename Engine, typename Record, typename Make>
void CheckMidStreamResume(Make make, const std::vector<Record>& records) {
  for (const std::size_t cut :
       {std::size_t{0}, records.size() / 3, records.size() / 2,
        records.size()}) {
    Engine original = make();
    for (std::size_t i = 0; i < cut; ++i) original.Observe(records[i], i);
    const std::string saved = SnapshotBytes(original);

    Engine resumed = make();
    binio::Reader reader{std::string_view(saved)};
    ASSERT_TRUE(resumed.Restore(reader)) << "cut at " << cut;
    EXPECT_EQ(reader.Remaining(), 0u) << "cut at " << cut;

    for (std::size_t i = cut; i < records.size(); ++i) {
      original.Observe(records[i], i);
      resumed.Observe(records[i], i);
    }
    ASSERT_EQ(SnapshotBytes(resumed), SnapshotBytes(original))
        << "cut at " << cut;
  }
}

// The checkpoint rule over a freshly constructed engine, exactly as
// ReadCheckpointFile applies it to a whole payload.
template <typename Engine>
bool RuleAccepts(std::string_view payload, Engine& engine) {
  return binio::DecodeCanonical(
      payload, [&engine](binio::Reader& reader) { return engine.Restore(reader); },
      [&engine](binio::Writer& writer) { engine.Snapshot(writer); });
}

// Property: the rule refuses every truncation, and no damaged payload
// crashes the decoder.  A bit flip may decode into a different but valid
// state; the rule must keep it exactly when that state re-encodes to the
// flipped bytes.  Resetting after a refusal is the owner's job
// (StreamMonitor::Restore), pinned in the stream suites.
template <typename Engine, typename Record, typename Make>
void CheckDamagedRestoreRejected(Make make, const std::vector<Record>& records) {
  Engine full = make();
  for (std::size_t i = 0; i < records.size(); ++i) full.Observe(records[i], i);
  const std::string saved = SnapshotBytes(full);
  {
    Engine engine = make();
    EXPECT_TRUE(RuleAccepts(saved, engine));
  }

  for (const std::size_t keep :
       {std::size_t{0}, saved.size() / 4, saved.size() / 2, saved.size() - 1}) {
    Engine engine = make();
    EXPECT_FALSE(RuleAccepts(std::string_view(saved).substr(0, keep), engine))
        << "kept " << keep << " of " << saved.size() << " bytes";
  }
  for (std::size_t at = 0; at < saved.size(); at += 13) {
    std::string flipped = saved;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x20);
    Engine decoded = make();
    binio::Reader reader{std::string_view(flipped)};
    const bool decodes = decoded.Restore(reader) && reader.Ok();
    Engine engine = make();
    EXPECT_EQ(RuleAccepts(flipped, engine),
              decodes && SnapshotBytes(decoded) == flipped)
        << "flip at byte " << at;
  }
}

template <typename Engine, typename Make>
void CheckSelfMergeRefused(Make make) {
  Engine engine = make();
  EXPECT_FALSE(engine.MergeFrom(engine));
}

class EngineContractTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    faultsim::CampaignConfig config;
    config.SeedFrom(17);
    config.node_count = 36;
    campaign_ = new faultsim::CampaignResult(
        faultsim::FleetSimulator(config).Run());
    ASSERT_GT(campaign_->memory_errors.size(), 200u);
    ASSERT_FALSE(campaign_->het_records.empty());
  }
  static void TearDownTestSuite() {
    delete campaign_;
    campaign_ = nullptr;
  }

  // Split-at-every-boundary is O(n^2) observes; a bounded prefix keeps the
  // suite fast while still crossing fault-group, month and node boundaries.
  static std::vector<logs::MemoryErrorRecord> MemoryPrefix(std::size_t n = 150) {
    const auto& all = campaign_->memory_errors;
    return {all.begin(),
            all.begin() + static_cast<std::ptrdiff_t>(std::min(n, all.size()))};
  }
  static const std::vector<logs::HetRecord>& HetRecords() {
    return campaign_->het_records;
  }

  static faultsim::CampaignResult* campaign_;
};

faultsim::CampaignResult* EngineContractTest::campaign_ = nullptr;

// One TEST_F per engine keeps failures attributable.  The properties
// (split/merge, batch, resume, damaged-restore) run over the same record
// prefix.

TEST_F(EngineContractTest, FaultCoalescer) {
  const auto records = MemoryPrefix();
  const auto make = [] { return FaultCoalescer{}; };
  CheckSplitMergeEqualsSerial<FaultCoalescer>(make, records);
  CheckBatchEqualsPerRecord<FaultCoalescer>(make, records);
  CheckMidStreamResume<FaultCoalescer>(make, records);
  CheckDamagedRestoreRejected<FaultCoalescer>(make, records);
  CheckSelfMergeRefused<FaultCoalescer>(make);
}

TEST_F(EngineContractTest, FaultCoalescerConfigMismatchRefused) {
  CoalesceOptions other_options;
  other_options.dominance_fraction = 0.5;
  FaultCoalescer a;
  const FaultCoalescer b{other_options};
  EXPECT_FALSE(a.MergeFrom(b));
}

TEST_F(EngineContractTest, TemporalEngine) {
  const auto records = MemoryPrefix();
  const auto make = [] { return TemporalEngine{}; };
  CheckSplitMergeEqualsSerial<TemporalEngine>(make, records);
  CheckBatchEqualsPerRecord<TemporalEngine>(make, records);
  CheckMidStreamResume<TemporalEngine>(make, records);
  CheckDamagedRestoreRejected<TemporalEngine>(make, records);
  CheckSelfMergeRefused<TemporalEngine>(make);
}

TEST_F(EngineContractTest, PredictorEngine) {
  const auto records = MemoryPrefix();
  PredictorConfig config;
  config.ce_count_threshold = 4;
  config.distinct_address_threshold = 3;
  const auto make = [config] { return PredictorEngine{config}; };
  CheckSplitMergeEqualsSerial<PredictorEngine>(make, records);
  CheckBatchEqualsPerRecord<PredictorEngine>(make, records);
  CheckMidStreamResume<PredictorEngine>(make, records);
  CheckDamagedRestoreRejected<PredictorEngine>(make, records);
  CheckSelfMergeRefused<PredictorEngine>(make);
}

TEST_F(EngineContractTest, PredictorEngineConfigMismatchRefused) {
  PredictorConfig other_config;
  other_config.ce_count_threshold = 99;
  PredictorEngine a;
  const PredictorEngine b{other_config};
  EXPECT_FALSE(a.MergeFrom(b));
}

TEST_F(EngineContractTest, UncorrectableEngine) {
  const auto& records = HetRecords();
  const auto make = [] { return UncorrectableEngine{}; };
  CheckSplitMergeEqualsSerial<UncorrectableEngine, logs::HetRecord>(make,
                                                                    records);
  CheckMidStreamResume<UncorrectableEngine, logs::HetRecord>(make, records);
  CheckDamagedRestoreRejected<UncorrectableEngine, logs::HetRecord>(
      make, records);
  CheckSelfMergeRefused<UncorrectableEngine>(make);
}

// The HET section of every checkpoint, pinned byte for byte: the record
// count, then each record in the canonical text format.  A codec change here
// must come with a kCheckpointVersion bump (stream/checkpoint.hpp).
TEST_F(EngineContractTest, UncorrectableEngineSnapshotIsCountThenCanonicalText) {
  const auto& records = HetRecords();
  UncorrectableEngine engine;
  std::string want;
  binio::Writer writer(want);
  writer.PutU64(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    engine.Observe(records[i], i);
    writer.PutString(logs::FormatRecord(records[i]));
  }
  EXPECT_EQ(SnapshotBytes(engine), want);
}

// The predictor section of every checkpoint, pinned byte for byte: the DIMM
// count, then per DIMM in ascending id its DUE state, its addresses in
// ascending order with each one's bits ascending and the earliest moment
// (timestamp, sequence) each was seen, then the CE-volume heap sorted.  The
// stream arrives in descending DIMM and address order, repeats one
// (address, bit) with its earlier moment second, and spreads 120 addresses
// over one DIMM.  A codec change here must come with a kCheckpointVersion
// bump (stream/checkpoint.hpp).
TEST_F(EngineContractTest, PredictorEngineSnapshotIsSortedDimmAddressBitMoments) {
  const SimTime base = SimTime::FromCivil(2019, 4, 1);
  const auto make = [base](NodeId node, DimmSlot slot, std::uint64_t address,
                           int bit, int minute, bool due = false) {
    logs::MemoryErrorRecord r;
    r.timestamp = base.AddMinutes(minute);
    r.node = node;
    r.slot = slot;
    r.socket = SocketOfSlot(slot);
    r.bit_position = bit;
    r.physical_address = address;
    r.type = due ? logs::FailureType::kUncorrectable
                 : logs::FailureType::kCorrectable;
    return r;
  };
  constexpr int kAddresses = 120;
  const auto address = [](int k) { return 0x4000u + 8u * static_cast<unsigned>(k); };
  std::vector<logs::MemoryErrorRecord> records;
  records.push_back(make(5, DimmSlot::D, 0x100, 0, 2000, /*due=*/true));
  for (int k = kAddresses - 1; k >= 0; --k) {  // seq 1..120: moment of k = seq 120-k
    records.push_back(make(2, DimmSlot::C, address(k), 7, k));
  }
  records.push_back(make(2, DimmSlot::C, address(5), 1, 500));       // seq 121
  records.push_back(make(2, DimmSlot::C, 0x100, 0, 3000, /*due=*/true));
  records.push_back(make(0, DimmSlot::A, 0x9000, 4, 50));            // seq 123
  records.push_back(make(0, DimmSlot::A, 0x8000, 2, 40));            // seq 124
  records.push_back(make(0, DimmSlot::A, 0x9000, 4, 10));            // seq 125

  PredictorConfig config;
  config.ce_count_threshold = 2;
  PredictorEngine engine{config};
  for (std::size_t i = 0; i < records.size(); ++i) engine.Observe(records[i], i);

  const auto seconds = [base](int minute) { return base.AddMinutes(minute).Seconds(); };
  std::string want;
  binio::Writer writer(want);
  const auto put_moment = [&](int minute, std::uint64_t seq) {
    writer.PutI64(seconds(minute));
    writer.PutU64(seq);
  };
  writer.PutU64(3);
  // DIMM (0, A): no DUE; 0x9000's bit 4 keeps its second, earlier moment.
  writer.PutI64(GlobalDimmIndex(0, DimmSlot::A));
  writer.PutBool(false);
  writer.PutI64(0);
  writer.PutU64(2);
  writer.PutU64(0x8000);
  writer.PutU64(1);
  writer.PutI32(2);
  put_moment(40, 124);
  writer.PutU64(0x9000);
  writer.PutU64(1);
  writer.PutI32(4);
  put_moment(10, 125);
  writer.PutU64(2);
  put_moment(10, 125);
  put_moment(40, 124);
  // DIMM (2, C): a DUE, 120 addresses, address(5) holding bits 1 and 7.
  writer.PutI64(GlobalDimmIndex(2, DimmSlot::C));
  writer.PutBool(true);
  writer.PutI64(seconds(3000));
  writer.PutU64(kAddresses);
  for (int k = 0; k < kAddresses; ++k) {
    const auto seq = static_cast<std::uint64_t>(kAddresses - k);
    writer.PutU64(address(k));
    writer.PutU64(k == 5 ? 2 : 1);
    if (k == 5) {
      writer.PutI32(1);
      put_moment(500, 121);
    }
    writer.PutI32(7);
    put_moment(k, seq);
  }
  writer.PutU64(2);
  put_moment(0, 120);
  put_moment(1, 119);
  // DIMM (5, D): only a DUE, so no addresses and an empty heap.
  writer.PutI64(GlobalDimmIndex(5, DimmSlot::D));
  writer.PutBool(true);
  writer.PutI64(seconds(2000));
  writer.PutU64(0);
  writer.PutU64(0);
  EXPECT_EQ(SnapshotBytes(engine), want);
}

// --- AnalysisEngineSet: the composite the drivers actually hold ---------------

std::string RenderedReport(const AnalysisEngineSet& set) {
  std::ostringstream out;
  RenderAnalysisReport(out, set.Finalize(set.InferredContext()));
  return out.str();
}

TEST_F(EngineContractTest, EngineSetContractProperties) {
  const auto records = MemoryPrefix(100);  // three engines per record
  const auto make = [] { return AnalysisEngineSet{}; };
  CheckSplitMergeEqualsSerial<AnalysisEngineSet>(make, records);
  CheckMidStreamResume<AnalysisEngineSet>(make, records);
  CheckDamagedRestoreRejected<AnalysisEngineSet>(make, records);
  CheckSelfMergeRefused<AnalysisEngineSet>(make);
}

TEST_F(EngineContractTest, EngineSetConfigMismatchRefused) {
  EngineSetConfig other_config;
  other_config.predictor.ce_count_threshold = 7;
  AnalysisEngineSet a;
  const AnalysisEngineSet b{other_config};
  EXPECT_FALSE(a.MergeFrom(b));
}

// The parallel driver's sharding: shard k's engine is seeded with its first
// GLOBAL index and fed via ObserveMemory; index-order reduction plus serial
// het replay must render the byte-identical report.
TEST_F(EngineContractTest, EngineSetShardedReductionRendersIdentically) {
  const auto& records = campaign_->memory_errors;
  const auto& het = HetRecords();

  AnalysisEngineSet serial;
  for (const auto& record : records) serial.ObserveMemory(record);
  for (const auto& record : het) serial.ObserveHet(record);
  const std::string want = RenderedReport(serial);

  for (const std::size_t shards : {std::size_t{2}, std::size_t{3},
                                   std::size_t{8}}) {
    std::vector<AnalysisEngineSet> sets;
    const std::size_t per = (records.size() + shards - 1) / shards;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t first = std::min(s * per, records.size());
      const std::size_t last = std::min(first + per, records.size());
      sets.emplace_back(EngineSetConfig{}, first);
      for (std::size_t i = first; i < last; ++i) {
        sets.back().ObserveMemory(records[i]);
      }
    }
    for (std::size_t s = 1; s < sets.size(); ++s) {
      ASSERT_TRUE(sets.front().MergeFrom(sets[s])) << shards << " shards";
    }
    for (const auto& record : het) sets.front().ObserveHet(record);
    ASSERT_EQ(RenderedReport(sets.front()), want) << shards << " shards";
    ASSERT_EQ(sets.front().Delivered(), records.size()) << shards << " shards";
  }
}

// The campaign written to `dir`, damaged by `mode` at severity 0.3 and
// ingested through the quarantining reader: exactly the record stream a
// dirty production ingest delivers.
DatasetIngest IngestCorrupted(const faultsim::CampaignResult& campaign,
                              logs::CorruptionMode mode, const std::string& dir) {
  std::filesystem::create_directories(dir);
  const auto paths = DatasetPaths::InDirectory(dir);
  EXPECT_TRUE(WriteFailureData(paths, campaign));
  logs::CorruptionConfig corruption;
  corruption.seed = 2000 + static_cast<std::uint64_t>(mode);
  corruption.Set(mode, 0.3);
  logs::CorruptionInjector injector(corruption);
  EXPECT_TRUE(injector.CorruptDirectory(dir).has_value());
  auto ingest = IngestFailureData(paths, logs::IngestPolicy{});
  EXPECT_EQ(ingest.status, DatasetStatus::kOk);
  std::filesystem::remove_all(dir);
  return ingest;
}

// The streaming driver's checkpoint cycle on DIRTY data: for every corruption
// mode, write the campaign, damage the files, ingest through the quarantining
// reader, and demand the resume property over exactly the surviving records —
// ending in a byte-identical rendered report.
TEST_F(EngineContractTest, MidStreamResumeHoldsUnderEveryCorruptionMode) {
  const std::string base = ScratchPath("astra_engine_contract_dirty");
  for (int m = 0; m < logs::kCorruptionModeCount; ++m) {
    const auto mode = static_cast<logs::CorruptionMode>(m);
    SCOPED_TRACE(std::string("mode ") +
                 std::string(logs::CorruptionModeName(mode)));
    const auto ingest = IngestCorrupted(
        *campaign_, mode, base + "_" + std::string(logs::CorruptionModeName(mode)));
    if (HasFailure()) return;

    AnalysisEngineSet serial;
    for (const auto& record : ingest.memory_errors) {
      serial.ObserveMemory(record);
    }
    for (const auto& record : ingest.het_events) serial.ObserveHet(record);

    // Checkpoint halfway, resume into a fresh set, feed the remainder.
    const std::size_t cut = ingest.memory_errors.size() / 2;
    AnalysisEngineSet first_half;
    for (std::size_t i = 0; i < cut; ++i) {
      first_half.ObserveMemory(ingest.memory_errors[i]);
    }
    const std::string saved = SnapshotBytes(first_half);
    AnalysisEngineSet resumed;
    binio::Reader reader{std::string_view(saved)};
    ASSERT_TRUE(resumed.Restore(reader));
    for (std::size_t i = cut; i < ingest.memory_errors.size(); ++i) {
      resumed.ObserveMemory(ingest.memory_errors[i]);
    }
    for (const auto& record : ingest.het_events) resumed.ObserveHet(record);

    EXPECT_EQ(SnapshotBytes(resumed), SnapshotBytes(serial));
    EXPECT_EQ(RenderedReport(resumed), RenderedReport(serial));
  }
}

// The report's per-node CE counts are summed from the coalesced faults'
// error counts.  They must equal a direct tally of the CE records, because
// the coalescer files every CE in exactly one fault (a decomposed group's
// per-address faults keep its total) and skips every DUE.
void ExpectCesPerNodeEqualRecordTally(
    std::span<const logs::MemoryErrorRecord> records) {
  AnalysisEngineSet set;
  set.ObserveMemoryBatch(records);
  const EngineContext ctx = set.InferredContext();
  const PositionalAnalysis positions = set.Finalize(ctx).positions;
  const PositionalCounts tally = TallyErrorPositions(records, ctx.node_span);

  EXPECT_EQ(positions.ces_per_node, tally.per_node);
  EXPECT_EQ(positions.nodes_with_errors,
            static_cast<std::uint64_t>(std::count_if(
                tally.per_node.begin(), tally.per_node.end(),
                [](std::uint64_t count) { return count > 0; })));
  const stats::ConcentrationCurve curve = stats::ComputeConcentration(tally.per_node);
  EXPECT_EQ(positions.ce_concentration.grand_total, curve.grand_total);
  EXPECT_EQ(positions.ce_concentration.cumulative_share, curve.cumulative_share);
  EXPECT_EQ(curve.grand_total, tally.Total());
}

TEST_F(EngineContractTest, CesPerNodeEqualTheRecordTally) {
  // The suite's seed-17 campaign has no DUE and no decomposed bank group;
  // this one has both, the two cases the identity rests on.
  faultsim::CampaignConfig config;
  config.SeedFrom(2024);
  config.node_count = 36;
  const faultsim::CampaignResult campaign = faultsim::FleetSimulator(config).Run();
  const CoalesceResult coalesced = FaultCoalescer::Coalesce(campaign.memory_errors);
  ASSERT_GT(coalesced.skipped_records, 0u);
  std::map<std::tuple<NodeId, DimmSlot, RankId, BankId>, int> faults_per_bank;
  for (const auto& f : coalesced.faults) {
    ++faults_per_bank[{f.node, f.slot, f.rank, f.bank}];
  }
  ASSERT_TRUE(std::any_of(faults_per_bank.begin(), faults_per_bank.end(),
                          [](const auto& entry) { return entry.second > 1; }))
      << "no decomposed bank group";

  ExpectCesPerNodeEqualRecordTally(campaign.memory_errors);

  const std::string base = ScratchPath("astra_engine_contract_ces");
  for (int m = 0; m < logs::kCorruptionModeCount; ++m) {
    const auto mode = static_cast<logs::CorruptionMode>(m);
    SCOPED_TRACE(std::string("mode ") +
                 std::string(logs::CorruptionModeName(mode)));
    const auto ingest = IngestCorrupted(
        campaign, mode, base + "_" + std::string(logs::CorruptionModeName(mode)));
    if (HasFailure()) return;
    ExpectCesPerNodeEqualRecordTally(ingest.memory_errors);
  }
}

}  // namespace
}  // namespace astra::core
