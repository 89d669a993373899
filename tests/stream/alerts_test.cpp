// Sliding-window burst alerts: rising-edge semantics with re-arm, per-node
// independence, unconditional DUE alerts, out-of-order hygiene, and exact
// continuation across a checkpoint.
#include "stream/alerts.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "scratch_path.hpp"
#include "stream/monitor.hpp"
#include "util/binio.hpp"

namespace astra::stream {
namespace {

logs::MemoryErrorRecord Ce(std::int64_t offset_s, NodeId node) {
  logs::MemoryErrorRecord r;
  r.timestamp = SimTime::FromCivil(2019, 6, 15, 0, 0, 0).AddSeconds(offset_s);
  r.node = node;
  r.slot = DimmSlot::A;
  r.socket = SocketOfSlot(r.slot);
  r.type = logs::FailureType::kCorrectable;
  return r;
}

logs::MemoryErrorRecord Due(std::int64_t offset_s, NodeId node) {
  auto r = Ce(offset_s, node);
  r.type = logs::FailureType::kUncorrectable;
  return r;
}

std::vector<std::string> Messages(std::vector<Alert> alerts) {
  std::vector<std::string> messages;
  messages.reserve(alerts.size());
  for (const auto& alert : alerts) messages.push_back(alert.Message());
  return messages;
}

TEST(StreamingAlertsTest, FleetThresholdFiresOnRisingEdgeOnly) {
  AlertConfig config;
  config.window_seconds = 100;
  config.fleet_ce_threshold = 3;
  StreamingAlerts alerts(config);

  alerts.Observe(Ce(0, 1));
  alerts.Observe(Ce(10, 2));
  EXPECT_TRUE(alerts.Drain().empty());  // below threshold: armed, silent

  alerts.Observe(Ce(20, 3));
  auto fired = alerts.Drain();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].kind, Alert::Kind::kFleetCeRate);
  EXPECT_EQ(fired[0].count, 3u);
  EXPECT_EQ(fired[0].window_seconds, 100);

  // Sustained burst: still over threshold, but the edge already fired.
  alerts.Observe(Ce(30, 4));
  alerts.Observe(Ce(40, 5));
  EXPECT_TRUE(alerts.Drain().empty());
}

TEST(StreamingAlertsTest, FleetReArmsAfterBurstSubsides) {
  AlertConfig config;
  config.window_seconds = 100;
  config.fleet_ce_threshold = 3;
  StreamingAlerts alerts(config);

  for (const std::int64_t t : {0, 10, 20}) alerts.Observe(Ce(t, 1));
  EXPECT_EQ(alerts.Drain().size(), 1u);

  // 150s later the whole burst has aged out: the window drains, the rule
  // re-arms, and a fresh burst fires a second alert.
  alerts.Observe(Ce(170, 1));
  alerts.Observe(Ce(180, 1));
  alerts.Observe(Ce(190, 1));
  auto fired = alerts.Drain();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].count, 3u);
}

TEST(StreamingAlertsTest, NodeThresholdsAreIndependent) {
  AlertConfig config;
  config.window_seconds = 1000;
  config.node_ce_threshold = 2;
  StreamingAlerts alerts(config);

  alerts.Observe(Ce(0, 7));
  alerts.Observe(Ce(10, 9));
  EXPECT_TRUE(alerts.Drain().empty());  // one CE each: neither node is bursting

  alerts.Observe(Ce(20, 7));
  auto fired = alerts.Drain();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].kind, Alert::Kind::kNodeCeRate);
  EXPECT_EQ(fired[0].node, 7);
  EXPECT_EQ(fired[0].count, 2u);

  alerts.Observe(Ce(30, 9));
  fired = alerts.Drain();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].node, 9);
}

TEST(StreamingAlertsTest, DueAlertsAreUnconditional) {
  // No CE thresholds configured at all: uncorrectables still page.
  StreamingAlerts alerts(AlertConfig{});
  alerts.Observe(Due(0, 42));
  auto fired = alerts.Drain();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].kind, Alert::Kind::kDue);
  EXPECT_NE(fired[0].Message().find("uncorrectable (DUE) on node 42"),
            std::string::npos);
}

TEST(StreamingAlertsTest, StaleOutOfOrderCeDoesNotCount) {
  AlertConfig config;
  config.window_seconds = 100;
  config.fleet_ce_threshold = 3;
  StreamingAlerts alerts(config);

  alerts.Observe(Ce(1000, 1));
  alerts.Observe(Ce(850, 2));  // older than the window: must not count
  alerts.Observe(Ce(950, 3));
  EXPECT_TRUE(alerts.Drain().empty());  // 2 in window, not 3

  alerts.Observe(Ce(990, 4));
  auto fired = alerts.Drain();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].count, 3u);
}

TEST(StreamingAlertsTest, EveryMessageCarriesTheAlertMarker) {
  AlertConfig config;
  config.window_seconds = 60;
  config.fleet_ce_threshold = 1;
  config.node_ce_threshold = 1;
  StreamingAlerts alerts(config);
  alerts.Observe(Ce(0, 5));
  alerts.Observe(Due(1, 5));
  const auto messages = Messages(alerts.Drain());
  ASSERT_EQ(messages.size(), 3u);  // fleet + node + due
  for (const auto& message : messages) {
    EXPECT_NE(message.find("ALERT"), std::string::npos) << message;
  }
}

TEST(StreamingAlertsTest, CheckpointMidBurstContinuesIdentically) {
  AlertConfig config;
  config.window_seconds = 100;
  config.fleet_ce_threshold = 3;
  config.node_ce_threshold = 2;

  StreamingAlerts uninterrupted(config);
  StreamingAlerts first_half(config);
  for (const std::int64_t t : {0, 10}) {
    uninterrupted.Observe(Ce(t, 1));
    first_half.Observe(Ce(t, 1));
  }
  (void)first_half.Drain();
  (void)uninterrupted.Drain();

  std::string state;
  binio::Writer writer(state);
  first_half.Snapshot(writer);
  StreamingAlerts restored(config);
  binio::Reader reader(state);
  ASSERT_TRUE(restored.Restore(reader));
  EXPECT_EQ(reader.Remaining(), 0u);

  // The third CE completes the burst on both timelines identically.
  restored.Observe(Ce(20, 1));
  uninterrupted.Observe(Ce(20, 1));
  EXPECT_EQ(Messages(restored.Drain()), Messages(uninterrupted.Drain()));
}

TEST(StreamingAlertsTest, TruncatedStateIsRejectedAndReset) {
  AlertConfig config;
  config.window_seconds = 100;
  config.fleet_ce_threshold = 2;
  StreamingAlerts alerts(config);
  alerts.Observe(Ce(0, 1));
  std::string state;
  binio::Writer writer(state);
  alerts.Snapshot(writer);
  const std::string_view truncated = std::string_view(state).substr(0, state.size() / 2);

  StreamingAlerts damaged(config);
  binio::Reader reader(truncated);
  EXPECT_FALSE(damaged.Restore(reader));

  // Resetting is the owner's job: the same truncation as the alert section
  // of a monitor payload leaves the monitor's alert engine fresh.
  MonitorConfig monitor_config;
  monitor_config.alerts = config;
  StreamMonitor monitor(
      core::DatasetPaths::InDirectory(ScratchPath("astra_alerts_unused")),
      monitor_config);
  std::string payload;
  binio::Writer payload_writer(payload);
  monitor.Snapshot(payload_writer);
  std::string fresh_alerts;
  binio::Writer fresh_writer(fresh_alerts);
  StreamingAlerts(config).Snapshot(fresh_writer);
  payload.resize(payload.size() - fresh_alerts.size());
  payload += truncated;
  binio::Reader monitor_reader(payload);
  EXPECT_FALSE(monitor.Restore(monitor_reader));

  // Half-restored, the window would still hold the CE at t=0 and the next
  // CE would complete a burst; reset, it takes two more.
  StreamingAlerts after = monitor.AlertEngine();
  after.Observe(Ce(10, 2));
  EXPECT_TRUE(after.Drain().empty());
  after.Observe(Ce(20, 3));
  EXPECT_EQ(after.Drain().size(), 1u);
}

TEST(StreamingAlertsMergeTest, SelfMergeAndConfigMismatchAreRefused) {
  AlertConfig config;
  config.window_seconds = 100;
  config.fleet_ce_threshold = 3;
  StreamingAlerts alerts(config);
  EXPECT_FALSE(alerts.MergeFrom(alerts));

  AlertConfig other = config;
  other.fleet_ce_threshold = 4;
  StreamingAlerts mismatched(other);
  EXPECT_FALSE(alerts.MergeFrom(mismatched));

  StreamingAlerts compatible(config);
  EXPECT_TRUE(alerts.MergeFrom(compatible));
}

TEST(StreamingAlertsMergeTest, PendingAlertsSurviveTheMerge) {
  AlertConfig config;
  StreamingAlerts source(config);
  source.Observe(Due(100, 7));  // pending, never drained

  StreamingAlerts target(config);
  target.Observe(Due(50, 3));
  ASSERT_TRUE(target.MergeFrom(source));
  const auto fired = target.Drain();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].node, 3);
  EXPECT_EQ(fired[1].node, 7);
}

TEST(StreamingAlertsMergeTest, FiredLatchesOrSoMergedBurstsDoNotRefire) {
  AlertConfig config;
  config.window_seconds = 100;
  config.fleet_ce_threshold = 3;

  StreamingAlerts source(config);
  for (const std::int64_t t : {0, 10, 20}) source.Observe(Ce(t, 1));
  EXPECT_EQ(source.Drain().size(), 1u);  // source already alerted

  StreamingAlerts target(config);
  ASSERT_TRUE(target.MergeFrom(source));
  // The merged window stands over the threshold, but the crossing was
  // already reported by the operand: no duplicate.
  EXPECT_TRUE(target.Drain().empty());

  // Still latched: another in-window CE stays silent...
  target.Observe(Ce(30, 2));
  EXPECT_TRUE(target.Drain().empty());
  // ...and after the burst ages out, the rule re-arms as usual.
  target.Observe(Ce(500, 1));
  target.Observe(Ce(510, 2));
  target.Observe(Ce(520, 3));
  EXPECT_EQ(target.Drain().size(), 1u);
}

TEST(StreamingAlertsMergeTest, CrossStreamFleetBurstFiresAtTheMergedMax) {
  AlertConfig config;
  config.window_seconds = 100;
  config.fleet_ce_threshold = 4;

  // Two CEs per stream: neither stream alone crosses the fleet threshold.
  StreamingAlerts left(config);
  left.Observe(Ce(0, 1));
  left.Observe(Ce(20, 2));
  StreamingAlerts right(config);
  right.Observe(Ce(10, 3));
  right.Observe(Ce(30, 4));
  EXPECT_TRUE(left.Drain().empty());
  EXPECT_TRUE(right.Drain().empty());

  StreamingAlerts merged(config);
  ASSERT_TRUE(merged.MergeFrom(left));
  ASSERT_TRUE(merged.MergeFrom(right));
  const auto fired = merged.Drain();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].kind, Alert::Kind::kFleetCeRate);
  EXPECT_EQ(fired[0].count, 4u);
  EXPECT_EQ(fired[0].at, Ce(30, 4).timestamp);  // the merged horizon
}

TEST(StreamingAlertsMergeTest, CrossStreamNodeBurstIsDetected) {
  AlertConfig config;
  config.window_seconds = 100;
  config.node_ce_threshold = 2;

  // Node 7's CEs land in different streams (e.g. around a failover).
  StreamingAlerts left(config);
  left.Observe(Ce(0, 7));
  StreamingAlerts right(config);
  right.Observe(Ce(10, 7));
  EXPECT_TRUE(left.Drain().empty());
  EXPECT_TRUE(right.Drain().empty());

  StreamingAlerts merged(config);
  ASSERT_TRUE(merged.MergeFrom(left));
  ASSERT_TRUE(merged.MergeFrom(right));
  const auto fired = merged.Drain();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].kind, Alert::Kind::kNodeCeRate);
  EXPECT_EQ(fired[0].node, 7);
}

TEST(StreamingAlertsMergeTest, MergeReEvictsAgainstTheMergedHorizon) {
  AlertConfig config;
  config.window_seconds = 100;
  config.fleet_ce_threshold = 3;

  // Two stale CEs in one stream, one much newer CE in the other: the merged
  // window only contains the newer one, so no threshold crossing fires.
  StreamingAlerts stale(config);
  stale.Observe(Ce(0, 1));
  stale.Observe(Ce(10, 2));
  StreamingAlerts fresh(config);
  fresh.Observe(Ce(500, 3));

  StreamingAlerts merged(config);
  ASSERT_TRUE(merged.MergeFrom(stale));
  ASSERT_TRUE(merged.MergeFrom(fresh));
  EXPECT_TRUE(merged.Drain().empty());

  // Two more in-window CEs complete a genuine burst of exactly three.
  merged.Observe(Ce(510, 4));
  merged.Observe(Ce(520, 5));
  const auto fired = merged.Drain();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].count, 3u);
}

TEST(StreamingAlertsMergeTest, NeverDropsAnAlertSerialReplayWouldRaise) {
  AlertConfig config;
  config.window_seconds = 100;
  config.fleet_ce_threshold = 3;
  config.node_ce_threshold = 2;

  // The oracle: one engine sees the combined stream in time order.
  const std::vector<logs::MemoryErrorRecord> combined = {
      Ce(0, 1), Ce(10, 7), Due(15, 2), Ce(20, 7), Ce(30, 3)};
  StreamingAlerts serial(config);
  for (const auto& record : combined) serial.Observe(record);
  const auto expected = serial.Drain();
  ASSERT_FALSE(expected.empty());

  // The split: records partitioned across two streams, then merged.  Alerts
  // surface either at the member (drained pre-merge, as the serve merge
  // cycle does) or from the merged engine — the union may exceed the serial
  // set, but must never miss a (kind, node) the serial replay raised.
  StreamingAlerts left(config);
  StreamingAlerts right(config);
  left.Observe(combined[0]);
  right.Observe(combined[1]);
  left.Observe(combined[2]);
  right.Observe(combined[3]);
  left.Observe(combined[4]);
  auto raised = left.Drain();
  const auto right_raised = right.Drain();
  raised.insert(raised.end(), right_raised.begin(), right_raised.end());

  StreamingAlerts merged(config);
  ASSERT_TRUE(merged.MergeFrom(left));
  ASSERT_TRUE(merged.MergeFrom(right));
  const auto merge_raised = merged.Drain();
  raised.insert(raised.end(), merge_raised.begin(), merge_raised.end());

  for (const auto& alert : expected) {
    bool found = false;
    for (const auto& candidate : raised) {
      found = found || (candidate.kind == alert.kind &&
                        candidate.node == alert.node);
    }
    EXPECT_TRUE(found) << alert.Message();
  }
}

}  // namespace
}  // namespace astra::stream
