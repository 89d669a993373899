#include "core/predictor.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "faultsim/fleet.hpp"
#include "util/binio.hpp"

namespace astra::core {
namespace {

logs::MemoryErrorRecord Make(NodeId node, DimmSlot slot, std::uint64_t address,
                             int bit, int minute, bool due = false) {
  logs::MemoryErrorRecord r;
  r.timestamp = SimTime::FromCivil(2019, 4, 1).AddMinutes(minute);
  r.node = node;
  r.slot = slot;
  r.socket = SocketOfSlot(slot);
  r.rank = 0;
  r.bank = 0;
  r.bit_position = bit;
  r.physical_address = address;
  r.type = due ? logs::FailureType::kUncorrectable : logs::FailureType::kCorrectable;
  return r;
}

TEST(PredictorTest, MultibitSignatureFlagsBeforeDue) {
  std::vector<logs::MemoryErrorRecord> records;
  // Two distinct bits at one address, then a DUE a day later.
  records.push_back(Make(1, DimmSlot::A, 0x1000, 5, 0));
  records.push_back(Make(1, DimmSlot::A, 0x1000, 9, 10));
  records.push_back(Make(1, DimmSlot::A, 0x1000, 5, 24 * 60, /*due=*/true));
  PredictorConfig config;
  const PredictionEvaluation eval = EvaluatePredictor(records, config);
  EXPECT_EQ(eval.dimms_flagged, 1u);
  EXPECT_EQ(eval.dimms_with_due, 1u);
  EXPECT_EQ(eval.true_positives, 1u);
  EXPECT_EQ(eval.false_positives, 0u);
  EXPECT_DOUBLE_EQ(eval.Precision(), 1.0);
  EXPECT_DOUBLE_EQ(eval.Recall(), 1.0);
  ASSERT_EQ(eval.flags.size(), 1u);
  EXPECT_EQ(eval.flags[0].reason, "multi-bit word signature");
  EXPECT_NEAR(eval.median_lead_time_days, 1.0, 0.02);
}

TEST(PredictorTest, LateFlagDoesNotCount) {
  std::vector<logs::MemoryErrorRecord> records;
  // DUE arrives FIRST; the signature appears only afterwards.
  records.push_back(Make(2, DimmSlot::B, 0x2000, 5, 0, /*due=*/true));
  records.push_back(Make(2, DimmSlot::B, 0x2000, 5, 10));
  records.push_back(Make(2, DimmSlot::B, 0x2000, 9, 20));
  const PredictionEvaluation eval = EvaluatePredictor(records, PredictorConfig{});
  EXPECT_EQ(eval.true_positives, 0u);
  EXPECT_EQ(eval.late_flags, 1u);
  EXPECT_EQ(eval.missed, 1u);
  EXPECT_DOUBLE_EQ(eval.Recall(), 0.0);
}

TEST(PredictorTest, LeadTimeRequirementEnforced) {
  std::vector<logs::MemoryErrorRecord> records;
  records.push_back(Make(3, DimmSlot::C, 0x3000, 1, 0));
  records.push_back(Make(3, DimmSlot::C, 0x3000, 2, 1));
  records.push_back(Make(3, DimmSlot::C, 0x3000, 1, 30, /*due=*/true));  // 29 min later
  PredictorConfig config;
  config.lead_time_seconds = 3600;  // need an hour of warning
  const PredictionEvaluation eval = EvaluatePredictor(records, config);
  EXPECT_EQ(eval.true_positives, 0u);
  EXPECT_EQ(eval.late_flags, 1u);
}

TEST(PredictorTest, CeVolumeRule) {
  std::vector<logs::MemoryErrorRecord> records;
  for (int i = 0; i < 50; ++i) {
    records.push_back(Make(4, DimmSlot::D, 0x4000, 7, i));
  }
  PredictorConfig config;
  config.flag_multibit_word_signature = false;
  config.ce_count_threshold = 40;
  const PredictionEvaluation eval = EvaluatePredictor(records, config);
  EXPECT_EQ(eval.dimms_flagged, 1u);
  EXPECT_EQ(eval.false_positives, 1u);  // no DUE ever arrived
  EXPECT_DOUBLE_EQ(eval.Precision(), 0.0);
}

TEST(PredictorTest, FootprintRule) {
  std::vector<logs::MemoryErrorRecord> records;
  for (int i = 0; i < 20; ++i) {
    records.push_back(Make(5, DimmSlot::E, 0x5000 + 8u * static_cast<unsigned>(i), 7, i));
  }
  PredictorConfig config;
  config.flag_multibit_word_signature = false;
  config.distinct_address_threshold = 10;
  const PredictionEvaluation eval = EvaluatePredictor(records, config);
  EXPECT_EQ(eval.dimms_flagged, 1u);
  ASSERT_EQ(eval.flags.size(), 1u);
  EXPECT_NE(eval.flags[0].reason.find("footprint"), std::string::npos);
}

TEST(PredictorTest, DisabledRulesFlagNothing) {
  std::vector<logs::MemoryErrorRecord> records;
  for (int i = 0; i < 100; ++i) {
    records.push_back(Make(6, DimmSlot::F, 0x6000 + 8u * static_cast<unsigned>(i), i % 72, i));
  }
  PredictorConfig config;
  config.flag_multibit_word_signature = false;
  const PredictionEvaluation eval = EvaluatePredictor(records, config);
  EXPECT_EQ(eval.dimms_flagged, 0u);
}

TEST(PredictorTest, CampaignRecallOnSimulatedFleet) {
  // On simulator output, DUEs arise exclusively from multi-bit word faults,
  // whose CE streams show the signature — so the signature rule should
  // catch most DUE DIMMs with good precision.
  faultsim::CampaignConfig config;
  config.SeedFrom(77);
  config.node_count = 800;
  const auto sim = faultsim::FleetSimulator(config).Run();
  PredictorConfig predictor;
  predictor.lead_time_seconds = 0;
  const PredictionEvaluation eval = EvaluatePredictor(sim.memory_errors, predictor);
  if (eval.dimms_with_due >= 3) {
    EXPECT_GT(eval.Recall(), 0.5) << "flagged=" << eval.dimms_flagged
                                  << " with_due=" << eval.dimms_with_due;
  }
  // The signature rule should not spray flags across the fleet.
  EXPECT_LT(eval.dimms_flagged,
            static_cast<std::size_t>(config.node_count) * kDimmSlotsPerNode / 20);
}

std::string SnapshotOf(const PredictorEngine& engine) {
  std::string bytes;
  binio::Writer writer(bytes);
  engine.Snapshot(writer);
  return bytes;
}

// Every verdict Finalize reports, as one comparable string.
std::string Verdicts(const PredictionEvaluation& eval) {
  std::string out;
  for (const DimmFlag& flag : eval.flags) {
    out += std::to_string(flag.node) + "/" + std::to_string(static_cast<int>(flag.slot)) +
           "@" + std::to_string(flag.flagged_at.Seconds()) + " " + flag.reason + "; ";
  }
  for (const std::size_t count : {eval.dimms_with_due, eval.true_positives,
                                   eval.late_flags, eval.false_positives, eval.missed}) {
    out += std::to_string(count) + " ";
  }
  return out;
}

// Finalize walks state that Snapshot does not write (each address's chain
// of bits), so the verdicts of merged and restored engines are compared
// with the serial replay's directly.  On one DIMM three addresses gain five
// bits each out of time order, on another four addresses one bit each, and
// (address, bit) pairs recur with earlier moments.
TEST(PredictorTest, MergedAndRestoredEnginesFinalizeLikeTheSerialReplay) {
  std::vector<logs::MemoryErrorRecord> records;
  for (int i = 0; i < 24; ++i) {
    records.push_back(Make(7, DimmSlot::B, 0x7000 + 8u * static_cast<unsigned>(i % 3),
                           i % 5, 100 - 3 * i));
    records.push_back(Make(8, DimmSlot::C, 0x8000 + 8u * static_cast<unsigned>(i % 4),
                           i % 2, 90 - 2 * i));
  }
  records.push_back(Make(7, DimmSlot::B, 0x7000, 0, 200, /*due=*/true));
  PredictorConfig footprint;
  footprint.flag_multibit_word_signature = false;
  footprint.distinct_address_threshold = 3;
  for (const PredictorConfig& config : {PredictorConfig{}, footprint}) {
    PredictorEngine serial{config};
    for (std::size_t i = 0; i < records.size(); ++i) serial.Observe(records[i], i);
    const std::string want = Verdicts(serial.Finalize());
    ASSERT_NE(want.find('@'), std::string::npos);  // some DIMM is flagged

    for (std::size_t cut = 0; cut <= records.size(); ++cut) {
      PredictorEngine left{config};
      PredictorEngine right{config};
      for (std::size_t i = 0; i < cut; ++i) left.Observe(records[i], i);
      for (std::size_t i = cut; i < records.size(); ++i) right.Observe(records[i], i);
      PredictorEngine restored{config};
      const std::string saved = SnapshotOf(right);
      binio::Reader reader{std::string_view(saved)};
      ASSERT_TRUE(restored.Restore(reader)) << "cut at " << cut;
      ASSERT_TRUE(left.MergeFrom(restored)) << "cut at " << cut;
      EXPECT_EQ(Verdicts(left.Finalize()), want) << "cut at " << cut;
    }
  }
}

// A predictor payload laid out as Snapshot writes one: per DIMM its id, no
// DUE, each address with its bits, then `heap` CE-volume moments.
struct AddressBits {
  std::uint64_t address;
  std::vector<std::int32_t> bits;
};
struct DimmPayload {
  std::int64_t dimm;
  std::vector<AddressBits> addresses;
  std::uint64_t heap = 0;
};

std::string Payload(const std::vector<DimmPayload>& dimms) {
  std::string bytes;
  binio::Writer writer(bytes);
  std::uint64_t seq = 0;
  writer.PutU64(dimms.size());
  for (const DimmPayload& dimm : dimms) {
    writer.PutI64(dimm.dimm);
    writer.PutBool(false);
    writer.PutI64(0);
    writer.PutU64(dimm.addresses.size());
    for (const AddressBits& address : dimm.addresses) {
      writer.PutU64(address.address);
      writer.PutU64(address.bits.size());
      for (const std::int32_t bit : address.bits) {
        writer.PutI32(bit);
        writer.PutI64(1000);
        writer.PutU64(seq++);
      }
    }
    writer.PutU64(dimm.heap);
    for (std::uint64_t i = 0; i < dimm.heap; ++i) {
      writer.PutI64(1000);
      writer.PutU64(i);
    }
  }
  return bytes;
}

// The checkpoint rule (binio::DecodeCanonical, applied by
// ReadCheckpointFile) over a freshly constructed engine.
bool RuleAccepts(std::string_view payload, PredictorEngine& engine) {
  return binio::DecodeCanonical(
      payload, [&engine](binio::Reader& reader) { return engine.Restore(reader); },
      [&engine](binio::Writer& writer) { engine.Snapshot(writer); });
}

// A checkpoint is outside input: only what Snapshot writes is kept (DIMMs,
// addresses and bits strictly ascending, every address holding a bit, no
// more CE-volume moments than the threshold keeps).  Order and uniqueness
// are the rule's to refuse; the heap bound is the decoder's.
TEST(PredictorTest, RestoreRefusesNonCanonicalPayload) {
  PredictorConfig config;
  config.ce_count_threshold = 1;
  config.distinct_address_threshold = 1;  // Finalize visits every address

  const std::string canonical =
      Payload({{16, {{0x100, {1, 2}}, {0x200, {3}}}, 1}, {17, {{0x100, {5}}}}});
  PredictorEngine restored{config};
  ASSERT_TRUE(RuleAccepts(canonical, restored));
  EXPECT_EQ(SnapshotOf(restored), canonical);
  EXPECT_EQ(restored.Finalize().dimms_flagged, 2u);

  const struct {
    const char* shape;
    std::vector<DimmPayload> dimms;
  } cases[] = {
      {"address with no bits", {{16, {{0x100, {}}}}}},
      {"repeated (address, bit)", {{16, {{0x100, {4, 4}}}}}},
      {"descending bits", {{16, {{0x100, {4, 3}}}}}},
      {"repeated address", {{16, {{0x100, {3}}, {0x100, {4}}}}}},
      {"descending addresses", {{16, {{0x200, {3}}, {0x100, {4}}}}}},
      {"repeated DIMM", {{16, {{0x100, {3}}}}, {16, {{0x200, {4}}}}}},
      {"descending DIMMs", {{17, {{0x100, {3}}}}, {16, {{0x200, {4}}}}}},
      {"CE heap beyond the threshold", {{16, {{0x100, {3}}}, 2}}},
  };
  for (const auto& bad : cases) {
    PredictorEngine engine{config};
    EXPECT_FALSE(RuleAccepts(Payload(bad.dimms), engine)) << bad.shape;
  }
}

}  // namespace
}  // namespace astra::core
