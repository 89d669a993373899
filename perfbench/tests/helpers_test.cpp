// Unit tests of the benchmark's own helpers: the percentile rule, span
// self time, open-loop lateness and the size-class node relabeling.  Build
// and run them with `python3 perfbench/run.py --selftest` (it writes
// scratch files under .bench_work/ in the current directory).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "open_loop.hpp"
#include "relabel.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = 1; i <= n; ++i) values.push_back(static_cast<double>(i));
  return values;
}

TEST(Percentile, P90RefusedBelowHundredSamples) {
  EXPECT_EQ(MinSamplesFor(90), 100u);
  EXPECT_FALSE(TailPercentile(Ramp(99), 90).has_value());
  const auto p90 = TailPercentile(Ramp(100), 90);
  ASSERT_TRUE(p90.has_value());
  EXPECT_DOUBLE_EQ(*p90, 90.0);
}

TEST(Percentile, P50NeedsTwentySamples) {
  EXPECT_EQ(MinSamplesFor(50), 20u);
  EXPECT_FALSE(TailPercentile(Ramp(19), 50).has_value());
  EXPECT_DOUBLE_EQ(*TailPercentile(Ramp(20), 50), 10.0);
}

TEST(Percentile, FailuresRankAsInfinitelySlow) {
  // 100 samples of 1 ms with failures at the front of the list: they sort
  // last and push the percentiles up, never down.
  std::vector<double> samples(100, 1.0);
  for (int i = 0; i < 5; ++i) samples[static_cast<std::size_t>(i)] = kFailedSample;
  EXPECT_DOUBLE_EQ(*TailPercentile(samples, 90), 1.0);
  for (int i = 0; i < 15; ++i) samples[static_cast<std::size_t>(i)] = kFailedSample;
  // 15% failed: p90 lands on a failure and cannot be reported.
  EXPECT_FALSE(TailPercentile(samples, 90).has_value());
  EXPECT_DOUBLE_EQ(*TailPercentile(samples, 50), 1.0);
}

TEST(Percentile, MedianOfEvenAndOddCounts) {
  EXPECT_DOUBLE_EQ(*Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(*Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_FALSE(Median({}).has_value());
}

Span MakeSpan(const std::string& name, double start, double end, int parent) {
  Span span;
  span.name = name;
  span.start_s = start;
  span.end_s = end;
  span.parent = parent;
  return span;
}

TEST(SelfTime, ChildrenAreSubtractedOnce) {
  // root [0, 10] with children [1, 4] and [3, 6] (overlapping: 5 s covered)
  // and a grandchild [1, 2] that only counts against its own parent.
  const std::vector<Span> spans = {
      MakeSpan("bench.pass", 0.0, 10.0, -1),
      MakeSpan("logs.ingest", 1.0, 4.0, 0),
      MakeSpan("core.build", 3.0, 6.0, 0),
      MakeSpan("logs.parse", 1.0, 2.0, 1),
  };
  const auto self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 5.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  const auto layers = TotalsByLayer(spans);
  EXPECT_DOUBLE_EQ(layers.at("logs").self_s, 3.0);
  EXPECT_EQ(layers.at("logs").calls, 2);
  EXPECT_DOUBLE_EQ(layers.at("core").total_s, 3.0);
}

TEST(SelfTime, ChildOutsideParentIsClipped) {
  const std::vector<Span> spans = {MakeSpan("a.x", 0.0, 2.0, -1),
                                   MakeSpan("b.y", 1.0, 5.0, 0)};
  EXPECT_DOUBLE_EQ(SelfTimes(spans)[0], 1.0);
}

TEST(SelfTime, TracerRecordsNestingAndPauses) {
  Tracer tracer(true);
  {
    ScopedSpan outer(tracer, "bench.pass");
    ScopedSpan inner(tracer, "logs.ingest");
  }
  tracer.SetRecording(false);
  { ScopedSpan ignored(tracer, "logs.ingest"); }
  ASSERT_EQ(tracer.Spans().size(), 2u);
  EXPECT_EQ(tracer.Spans()[1].parent, 0);
  const std::string json = ChromeTraceJson(tracer.Spans());
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"logs.ingest\""), std::string::npos);
}

TEST(Relabel, PermutesOnlyWithinSizeClasses) {
  // Three classes: the zero-count nodes, counts 100-109, and 500-540.
  const std::vector<std::size_t> counts = {100, 0, 500, 105, 0, 540, 109, 0, 520, 100};
  const auto label = SizeClassRelabeling(counts, 7);
  ASSERT_EQ(label.size(), counts.size());
  EXPECT_EQ(std::set<std::uint32_t>(label.begin(), label.end()).size(), counts.size());
  for (std::size_t node = 0; node < counts.size(); ++node) {
    const double from = static_cast<double>(counts[node]);
    const double to = static_cast<double>(counts[label[node]]);
    // A node takes the label of a node in its own class: never across the
    // zero class, never more than 10% apart.
    EXPECT_EQ(from == 0.0, to == 0.0);
    EXPECT_LE(std::max(from, to), 1.10 * std::min(from, to));
  }
}

TEST(Relabel, SeedDecidesThePermutation) {
  std::vector<std::size_t> counts(200);
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] = 1000 + i % 50;
  EXPECT_EQ(SizeClassRelabeling(counts, 1), SizeClassRelabeling(counts, 1));
  EXPECT_NE(SizeClassRelabeling(counts, 1), SizeClassRelabeling(counts, 2));
}

TEST(OpenLoop, LatenessIsTheLatestTickStart) {
  EXPECT_DOUBLE_EQ(MaxLateness({0.0, 0.01, 0.02}, {0.0, 0.01, 0.02}), 0.0);
  EXPECT_DOUBLE_EQ(MaxLateness({0.0, 0.01, 0.02}, {0.001, 0.018, 0.021}), 0.008);
  // Early starts never count as negative lateness.
  EXPECT_DOUBLE_EQ(MaxLateness({0.01}, {0.0}), 0.0);
}

TEST(OpenLoop, ScheduleReleasesTheRateAndStaysOpenLoop) {
  const OpenLoopSchedule schedule{1000.0, 0.01};
  EXPECT_EQ(schedule.DueThrough(0), 10u);
  EXPECT_EQ(schedule.DueThrough(9), 100u);
  // A stalled emit does not stretch the schedule: the ticks that came due
  // meanwhile fire back to back, and the run still ends on schedule.
  std::size_t calls = 0;
  const auto run = RunOpenLoop(schedule, 100, 0.0, [&](std::size_t, std::size_t) {
    if (++calls == 1) std::this_thread::sleep_for(std::chrono::milliseconds(35));
  });
  EXPECT_EQ(run.emitted, 100u);
  ASSERT_EQ(run.started_s.size(), 10u);
  EXPECT_LT(run.started_s[3] - run.started_s[1], 0.005);
  EXPECT_GE(MaxLateness(run.due_s, run.started_s), 0.02);
  EXPECT_LT(run.started_s.back(), 0.09 + 0.02);
}

TEST(OpenLoop, LiveProducerStaysUnderOneTickAtTheChosenRate) {
  // The serve_live producer's write pattern at kLiveSchedule's rate: one
  // formatted line per record into per-node files, flushed each tick.
  const std::filesystem::path dir = ".bench_work/perfbench_open_loop_test";
  std::filesystem::create_directories(dir);
  std::vector<std::ofstream> streams;
  for (int node = 0; node < 64; ++node) {
    streams.emplace_back(dir / ("node-" + std::to_string(node) + ".tsv"),
                         std::ios::binary);
  }
  char line[160];
  const auto run = RunOpenLoop(
      kLiveSchedule, static_cast<std::size_t>(kLiveSchedule.items_per_second),
      2.0, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          std::snprintf(line, sizeof(line),
                        "2019-03-01T12:00:%02zu\t%zu\t0\tCE\tA\t0\t%zu\t%zu\t0x%zx\n",
                        i % 60, i % 432, i % 16, i % 1024, i);
          streams[i % streams.size()] << line;
        }
        for (auto& stream : streams) stream.flush();
      });
  streams.clear();
  std::filesystem::remove_all(dir);
  EXPECT_EQ(run.emitted, static_cast<std::size_t>(kLiveSchedule.items_per_second));
  EXPECT_LT(MaxLateness(run.due_s, run.started_s), kLiveSchedule.tick_seconds);
}

}  // namespace
}  // namespace perfbench
