// Analyzer-engine throughput: what the single incremental core
// (core/engine.hpp) costs in each driver configuration, over the SAME
// simulated campaign:
//
//   serial      - one AnalysisEngineSet observes every record in order
//                 (the batch driver at --threads=1, and the streaming
//                 driver's per-record work)
//   merge_N     - N per-shard engine sets filled concurrently, reduced via
//                 MergeFrom in index order (the parallel batch driver at
//                 --threads=N), N in {2, 4, 8}
//   stream_replay - the full streaming driver (TailReader -> engine set)
//                 consuming the finished on-disk files in one Finish() pass;
//                 unlike the rows above this includes file read + parse, the
//                 price of the tail-follow entry point
//
// Every configuration finalizes the artifacts, so the numbers compare whole
// driver passes, not just Observe loops.  Engine-side records/sec land in
// BENCH_engine.json for CI tracking.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.hpp"
#include "core/engine.hpp"
#include "faultsim/fleet.hpp"
#include "stream/monitor.hpp"
#include "util/parallel.hpp"

namespace astra {
namespace {

constexpr std::int64_t kStreamReplay = -2;   // sentinel rows in the sweep map
constexpr std::int64_t kObserveOnly = -3;    // batched Observe, no finalize

// Median-of-repetitions on hand-timed sweeps: each benchmark repetition
// appends one {seconds, records} sample, and the JSON reports the median
// per-rep rate — one descheduled rep on a noisy runner no longer moves the
// number the CI gate compares.
constexpr int kSweepRepetitions = 5;

const faultsim::CampaignResult& SharedCampaign() {
  static const faultsim::CampaignResult result = [] {
    faultsim::CampaignConfig config;
    config.SeedFrom(1);
    config.node_count = 400;
    return faultsim::FleetSimulator(config).Run();
  }();
  return result;
}

// The streaming-replay dataset, written once.
const core::DatasetPaths& SharedDataset() {
  static const core::DatasetPaths paths = [] {
    const auto dir =
        (std::filesystem::temp_directory_path() / "astra_bench_engine")
            .string();
    std::filesystem::create_directories(dir);
    auto p = core::DatasetPaths::InDirectory(dir);
    if (!core::WriteFailureData(p, SharedCampaign())) p.memory_errors.clear();
    return p;
  }();
  return paths;
}

// shard count (1 = serial, kStreamReplay = streaming, kObserveOnly =
// observe-only) -> one {seconds, records} sample per repetition.
using SweepSamples = std::vector<std::pair<double, std::int64_t>>;
std::map<std::int64_t, SweepSamples>& SweepResults() {
  static std::map<std::int64_t, SweepSamples> results;
  return results;
}

// Median per-rep records/sec of a sample set (0 when empty).
double MedianRate(const SweepSamples& samples) {
  std::vector<double> rates;
  rates.reserve(samples.size());
  for (const auto& [seconds, records] : samples) {
    if (seconds > 0.0 && records > 0) {
      rates.push_back(static_cast<double>(records) / seconds);
    }
  }
  if (rates.empty()) return 0.0;
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Serial and merge_N share one body: fill per-shard engine sets (one shard =
// plain serial replay), reduce in index order, finalize.
void BM_EngineReduce(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const auto& records = SharedCampaign().memory_errors;
  const auto& het = SharedCampaign().het_records;

  double seconds = 0.0;
  std::int64_t processed = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    core::AnalysisEngineSet reduced = ShardedReduce<core::AnalysisEngineSet>(
        records.size(), shards,
        [](std::size_t first) {
          return core::AnalysisEngineSet(core::EngineSetConfig{}, first);
        },
        [&records](core::AnalysisEngineSet& set, std::size_t begin,
                   std::size_t end) {
          set.ObserveMemoryBatch(
              std::span<const logs::MemoryErrorRecord>(records).subspan(
                  begin, end - begin));
        });
    for (const auto& record : het) reduced.ObserveHet(record);
    const auto artifacts = reduced.Finalize(reduced.InferredContext());
    seconds += SecondsSince(start);
    processed += static_cast<std::int64_t>(artifacts.record_count);
    benchmark::DoNotOptimize(artifacts.record_count);
  }
  state.SetItemsProcessed(processed);
  SweepResults()[state.range(0)].push_back({seconds, processed});
}
BENCHMARK(BM_EngineReduce)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.5)
    ->Repetitions(kSweepRepetitions)
    ->ReportAggregatesOnly(true)
    ->UseRealTime();

// Observe-only: the batched Observe path in isolation — no ingest, no
// finalize — so BENCH_engine.json separates "feeding the engines" from
// "projecting the artifacts".
void BM_EngineObserveOnly(benchmark::State& state) {
  const auto& records = SharedCampaign().memory_errors;
  double seconds = 0.0;
  std::int64_t processed = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    core::AnalysisEngineSet set{core::EngineSetConfig{}};
    set.ObserveMemoryBatch(records);
    seconds += SecondsSince(start);
    processed += static_cast<std::int64_t>(set.Delivered());
    benchmark::DoNotOptimize(set.Delivered());
  }
  state.SetItemsProcessed(processed);
  SweepResults()[kObserveOnly].push_back({seconds, processed});
}
BENCHMARK(BM_EngineObserveOnly)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.5)
    ->Repetitions(kSweepRepetitions)
    ->ReportAggregatesOnly(true)
    ->UseRealTime();

void BM_EngineStreamReplay(benchmark::State& state) {
  const auto& paths = SharedDataset();
  if (paths.memory_errors.empty()) {
    state.SkipWithError("failed writing the shared dataset");
    return;
  }
  double seconds = 0.0;
  std::int64_t processed = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    stream::StreamMonitor monitor(paths, stream::MonitorConfig{});
    benchmark::DoNotOptimize(monitor.Finish());
    const auto artifacts = monitor.Artifacts();
    seconds += SecondsSince(start);
    processed += static_cast<std::int64_t>(artifacts.record_count);
    benchmark::DoNotOptimize(artifacts.record_count);
  }
  state.SetItemsProcessed(processed);
  SweepResults()[kStreamReplay].push_back({seconds, processed});
}
BENCHMARK(BM_EngineStreamReplay)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.5)
    ->Repetitions(kSweepRepetitions)
    ->ReportAggregatesOnly(true)
    ->UseRealTime();

// BENCH_engine.json: records/sec per driver configuration plus the speedup
// over the serial engine replay.  Hand-rolled JSON — a handful of numeric
// fields don't justify a dependency.
void WriteEngineSweepJson(const std::string& path) {
  const auto& results = SweepResults();
  if (results.empty()) return;  // filtered out by --benchmark_filter
  const auto NameOf = [](std::int64_t key) -> std::string {
    if (key == kStreamReplay) return "stream_replay";
    if (key == kObserveOnly) return "observe_only";
    if (key == 1) return "serial";
    return "merge_" + std::to_string(key);
  };
  double serial_rate = 0.0;
  if (const auto it = results.find(1); it != results.end()) {
    serial_rate = MedianRate(it->second);
  }
  std::ofstream out(path);
  out << "{\n  \"campaign_records\": " << SharedCampaign().memory_errors.size()
      << ",\n  \"reps\": " << kSweepRepetitions << ",\n  \"sweep\": [\n";
  bool first = true;
  for (const auto& [key, samples] : results) {
    const double rate = MedianRate(samples);
    if (rate <= 0.0) continue;
    double seconds = 0.0;
    std::int64_t records = 0;
    for (const auto& [s, r] : samples) {
      seconds += s;
      records += r;
    }
    out << (first ? "" : ",\n") << "    {\"driver\": \"" << NameOf(key)
        << "\", \"records\": " << records << ", \"seconds\": " << seconds
        << ", \"records_per_s\": " << rate << ", \"speedup_vs_serial\": "
        << (serial_rate > 0.0 ? rate / serial_rate : 0.0) << "}";
    first = false;
  }
  out << "\n  ]\n}\n";
  std::fprintf(stderr, "wrote engine sweep to %s\n", path.c_str());
}

}  // namespace
}  // namespace astra

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  astra::WriteEngineSweepJson("BENCH_engine.json");
  std::error_code ec;
  std::filesystem::remove_all(
      std::filesystem::temp_directory_path() / "astra_bench_engine", ec);
  return 0;
}
