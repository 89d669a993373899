#include "sensors/sensor_store.hpp"

#include <gtest/gtest.h>

#include "sensors/environment.hpp"

namespace astra::sensors {
namespace {

const TimeWindow kWindow{SimTime::FromCivil(2019, 6, 1), SimTime::FromCivil(2019, 6, 3)};

class SensorStoreTest : public ::testing::Test {
 protected:
  SensorStoreTest()
      : store_(SensorStore::Materialize(env_.Sensors(), kWindow, /*node_count=*/4,
                                        /*stride_minutes=*/15)) {}
  Environment env_;
  SensorStore store_;
};

TEST_F(SensorStoreTest, DimensionsAndFill) {
  // 2 days at 15-minute stride = 192 slots per sensor.
  EXPECT_EQ(store_.SampleSlots(), 4u * kSensorsPerNode * 192);
  // Nearly all slots valid; a few gaps from injected bad samples.
  EXPECT_GT(store_.ValidSamples(), store_.SampleSlots() * 98 / 100);
  EXPECT_GT(store_.GapCount(), 0u);
}

TEST_F(SensorStoreTest, AtMatchesFieldSample) {
  const SimTime t = kWindow.begin.AddMinutes(45);
  const auto stored = store_.At(1, SensorKind::kCpu0Temp, t);
  ASSERT_TRUE(stored.has_value());
  const SensorReading direct = env_.Sensors().Sample(1, SensorKind::kCpu0Temp, t);
  ASSERT_TRUE(direct.Usable());
  EXPECT_NEAR(*stored, direct.value, 1e-3);  // float storage rounding
}

TEST_F(SensorStoreTest, AtRoundsToNearestSlot) {
  const SimTime slot_time = kWindow.begin.AddMinutes(30);
  const auto exact = store_.At(0, SensorKind::kDcPower, slot_time);
  const auto nearby = store_.At(0, SensorKind::kDcPower, slot_time.AddMinutes(6));
  ASSERT_TRUE(exact.has_value());
  ASSERT_TRUE(nearby.has_value());
  EXPECT_DOUBLE_EQ(*exact, *nearby);
}

TEST_F(SensorStoreTest, OutOfRangeQueries) {
  EXPECT_FALSE(store_.At(99, SensorKind::kCpu0Temp, kWindow.begin).has_value());
  EXPECT_FALSE(
      store_.At(0, SensorKind::kCpu0Temp, kWindow.begin.AddDays(-1)).has_value());
  EXPECT_FALSE(
      store_.At(0, SensorKind::kCpu0Temp, kWindow.end.AddDays(1)).has_value());
}

TEST_F(SensorStoreTest, MeanOverAgreesWithProceduralMean) {
  const TimeWindow query{kWindow.begin.AddHours(6), kWindow.begin.AddHours(30)};
  const auto stored = store_.MeanOver(2, SensorKind::kDimmsJLNP, query);
  ASSERT_TRUE(stored.has_value());
  const double procedural =
      env_.Sensors().MeanOverWindow(2, SensorKind::kDimmsJLNP, query, 256);
  // Stored samples carry read noise (sigma ~0.8 over ~96 samples -> ~0.1);
  // allow a modest band.
  EXPECT_NEAR(*stored, procedural, 0.5);
}

TEST_F(SensorStoreTest, MeanOverEmptyWindow) {
  const TimeWindow empty{kWindow.begin, kWindow.begin};
  EXPECT_FALSE(store_.MeanOver(0, SensorKind::kCpu0Temp, empty).has_value());
}

TEST(SensorStoreFromRecordsTest, RoundTripsThroughRecords) {
  Environment env;
  // Build records exactly as the dataset writer would.
  std::vector<logs::SensorRecord> records;
  const int stride = 30;
  for (std::int64_t m = 0; m < 2 * 24 * 60; m += stride) {
    for (NodeId node = 0; node < 2; ++node) {
      for (int s = 0; s < kSensorsPerNode; ++s) {
        const auto kind = static_cast<SensorKind>(s);
        const SimTime t = kWindow.begin.AddMinutes(m);
        const SensorReading reading = env.Sensors().Sample(node, kind, t);
        logs::SensorRecord record;
        record.timestamp = t;
        record.node = node;
        record.sensor = kind;
        record.valid = reading.status != SampleStatus::kMissing;
        record.value = reading.value;
        records.push_back(record);
      }
    }
  }
  const SensorStore store =
      SensorStore::FromRecords(records, kWindow, /*node_count=*/2, stride);
  EXPECT_GT(store.ValidSamples(), store.SampleSlots() * 95 / 100);

  // Values stored from records match direct materialization.
  const SensorStore direct =
      SensorStore::Materialize(env.Sensors(), kWindow, 2, stride);
  const SimTime probe = kWindow.begin.AddHours(13);
  const auto a = store.At(1, SensorKind::kCpu1Temp, probe);
  const auto b = direct.At(1, SensorKind::kCpu1Temp, probe);
  ASSERT_EQ(a.has_value(), b.has_value());
  if (a && b) {
    EXPECT_NEAR(*a, *b, 1e-3);
  }
}

TEST(SensorStoreFromRecordsTest, InvalidValuesBecomeGaps) {
  std::vector<logs::SensorRecord> records;
  logs::SensorRecord record;
  record.timestamp = kWindow.begin;
  record.node = 0;
  record.sensor = SensorKind::kDcPower;
  record.valid = true;
  record.value = 6553.5;  // implausible glitch value
  records.push_back(record);
  const SensorStore store = SensorStore::FromRecords(records, kWindow, 1, 60);
  EXPECT_EQ(store.ValidSamples(), 0u);
  EXPECT_FALSE(store.At(0, SensorKind::kDcPower, kWindow.begin).has_value());
}

}  // namespace
}  // namespace astra::sensors
