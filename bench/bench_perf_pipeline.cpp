// google-benchmark microbenchmarks for the toolkit's hot paths: record
// formatting/parsing, sharded mmap ingest, fault coalescing, positional
// analysis, the SEC-DED and chipkill codecs, and sensor-field evaluation.
// These guard the throughput that makes full-fleet (4M+ record) reproduction
// runs take seconds.
//
// The main() at the bottom replaces BENCHMARK_MAIN so the ingest scaling
// sweep can also be written to BENCH_ingest.json for CI tracking.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "core/coalesce.hpp"
#include "core/positional.hpp"
#include "ecc/adjudicate.hpp"
#include "faultsim/fleet.hpp"
#include "logs/log_file.hpp"
#include "logs/parallel_ingest.hpp"
#include "logs/serialize.hpp"
#include "sensors/environment.hpp"
#include "util/rng.hpp"

namespace astra {
namespace {

const faultsim::CampaignResult& SharedCampaign() {
  static const faultsim::CampaignResult result = [] {
    faultsim::CampaignConfig config;
    config.SeedFrom(1);
    config.node_count = 400;
    return faultsim::FleetSimulator(config).Run();
  }();
  return result;
}

void BM_FleetSimulation(benchmark::State& state) {
  faultsim::CampaignConfig config;
  config.SeedFrom(2);
  config.node_count = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto result = faultsim::FleetSimulator(config).Run();
    benchmark::DoNotOptimize(result.memory_errors.data());
    state.counters["records"] = static_cast<double>(result.memory_errors.size());
  }
}
BENCHMARK(BM_FleetSimulation)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_RecordFormat(benchmark::State& state) {
  const auto& records = SharedCampaign().memory_errors;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string line = logs::FormatRecord(records[i++ % records.size()]);
    benchmark::DoNotOptimize(line.data());
  }
}
BENCHMARK(BM_RecordFormat);

void BM_RecordParse(benchmark::State& state) {
  const auto& records = SharedCampaign().memory_errors;
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < 4096 && i < records.size(); ++i) {
    lines.push_back(logs::FormatRecord(records[i]));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto parsed = logs::ParseMemoryError(lines[i++ % lines.size()]);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_RecordParse);

// --- sharded ingest scaling sweep -------------------------------------------
//
// One TSV written once, ingested end-to-end (mmap, shard parse, ordered
// replay) at 1/2/4/8 threads.  Replicated campaigns are offset in time so
// every line is unique and the stream stays sorted — the dedup and re-sort
// stages see the same work a clean fleet log would give them.

struct IngestFixture {
  std::string path;
  std::size_t bytes = 0;
  std::size_t records = 0;
};

const IngestFixture& SharedIngestFile() {
  static const IngestFixture fixture = [] {
    IngestFixture f;
    f.path = (std::filesystem::temp_directory_path() / "astra_bench_ingest.tsv")
                 .string();
    const auto& errors = SharedCampaign().memory_errors;
    SimTime lo = errors.front().timestamp, hi = lo;
    for (const auto& r : errors) {
      lo = std::min(lo, r.timestamp);
      hi = std::max(hi, r.timestamp);
    }
    const std::int64_t stride = SecondsBetween(lo, hi) + 1;
    constexpr std::size_t kTargetBytes = 24 * 1024 * 1024;
    logs::LogFileWriter<logs::MemoryErrorRecord> writer(f.path);
    for (std::int64_t rep = 0; f.bytes < kTargetBytes; ++rep) {
      for (auto r : errors) {
        r.timestamp = r.timestamp.AddSeconds(rep * stride);
        writer.Append(r);
        ++f.records;
      }
      f.bytes = static_cast<std::size_t>(std::filesystem::file_size(f.path));
    }
    if (!writer.Finish()) f.records = 0;  // mismatch -> SkipWithError below
    f.bytes = static_cast<std::size_t>(std::filesystem::file_size(f.path));
    return f;
  }();
  return fixture;
}

// threads -> {total seconds, total files ingested}: the custom main below
// turns this into BENCH_ingest.json after the run.
std::map<int, std::pair<double, std::int64_t>>& IngestSweepResults() {
  static std::map<int, std::pair<double, std::int64_t>> results;
  return results;
}

// parse-only seconds accumulated for BENCH_ingest.json: isolates the SWAR
// field scanner + numeric parse from dedup hashing, the re-sort window, and
// sink delivery, so a parse regression is visible even when the end-to-end
// rate moves for other reasons.
std::pair<double, std::int64_t>& ParseOnlyResult() {
  static std::pair<double, std::int64_t> result{0.0, 0};
  return result;
}

void BM_ParseFileLines(benchmark::State& state) {
  const auto& fixture = SharedIngestFile();
  const auto file = io::Current().MapFile(fixture.path);
  if (!file) {
    state.SkipWithError("failed mapping the ingest fixture");
    return;
  }
  const std::string_view bytes = file->Bytes();
  const std::string_view header = logs::MemoryErrorHeader();
  double seconds = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    std::size_t parsed = 0;
    ForEachLineInView(bytes, [&](std::string_view line) {
      if (line.empty() || line == header) return true;
      if (logs::ParseMemoryError(line)) ++parsed;
      return true;
    });
    seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count();
    benchmark::DoNotOptimize(parsed);
    if (parsed != fixture.records) {
      state.SkipWithError("parse-only lane dropped records");
      return;
    }
  }
  const auto iters = static_cast<std::int64_t>(state.iterations());
  state.SetBytesProcessed(iters * static_cast<std::int64_t>(fixture.bytes));
  state.SetItemsProcessed(iters * static_cast<std::int64_t>(fixture.records));
  auto& slot = ParseOnlyResult();
  slot.first += seconds;
  slot.second += iters;
}
BENCHMARK(BM_ParseFileLines)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ParallelIngest(benchmark::State& state) {
  const auto& fixture = SharedIngestFile();
  const auto threads = static_cast<unsigned>(state.range(0));
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores != 0 && threads > cores) {
    // Oversubscribed rows measure contention, not scaling; say so once per
    // width instead of letting a flat curve masquerade as a scaling bug.
    std::fprintf(stderr,
                 "warning: BM_ParallelIngest threads=%u exceeds detected "
                 "hardware concurrency %u — this row measures "
                 "oversubscription\n",
                 threads, cores);
  }
  const logs::IngestPolicy policy;
  double seconds = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    logs::IngestReport report;
    const auto records = logs::ParallelIngestAllRecords<logs::MemoryErrorRecord>(
        fixture.path, policy, threads, &report);
    seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    benchmark::DoNotOptimize(records);
    // Exact duplicates inside the source campaign are deduped on ingest, so
    // compare parsed lines (which must all survive parsing) instead of the
    // surviving record count.
    if (!records || report.stats.parsed != fixture.records ||
        report.stats.malformed != 0) {
      state.SkipWithError("ingest quarantined records");
      return;
    }
  }
  const auto iters = static_cast<std::int64_t>(state.iterations());
  state.SetBytesProcessed(iters * static_cast<std::int64_t>(fixture.bytes));
  state.SetItemsProcessed(iters * static_cast<std::int64_t>(fixture.records));
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(iters) * static_cast<double>(fixture.bytes) / 1e6,
      benchmark::Counter::kIsRate);
  state.counters["records/s"] = benchmark::Counter(
      static_cast<double>(iters) * static_cast<double>(fixture.records),
      benchmark::Counter::kIsRate);
  auto& slot = IngestSweepResults()[static_cast<int>(threads)];
  slot.first += seconds;
  slot.second += iters;
}
BENCHMARK(BM_ParallelIngest)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Coalesce(benchmark::State& state) {
  const auto& records = SharedCampaign().memory_errors;
  for (auto _ : state) {
    const auto result = core::FaultCoalescer::Coalesce(records);
    benchmark::DoNotOptimize(result.faults.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_Coalesce)->Unit(benchmark::kMillisecond);

void BM_PositionalAnalysis(benchmark::State& state) {
  const auto& records = SharedCampaign().memory_errors;
  const auto coalesced = core::FaultCoalescer::Coalesce(records);
  for (auto _ : state) {
    const auto analysis = core::AnalyzePositions(coalesced, 400);
    benchmark::DoNotOptimize(analysis.nodes_with_errors);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(coalesced.faults.size()));
}
BENCHMARK(BM_PositionalAnalysis)->Unit(benchmark::kMillisecond);

void BM_SecDedEncodeDecode(benchmark::State& state) {
  Rng rng(3);
  std::uint64_t data = rng();
  for (auto _ : state) {
    ecc::CodeWord word = ecc::Encode(data);
    word.FlipBit(static_cast<int>(data % 72));
    const auto decoded = ecc::Decode(word);
    benchmark::DoNotOptimize(decoded.data);
    data = data * 6364136223846793005ULL + 1;
  }
}
BENCHMARK(BM_SecDedEncodeDecode);

void BM_ChipkillEncodeDecode(benchmark::State& state) {
  Rng rng(4);
  std::uint64_t lo = rng(), hi = rng();
  for (auto _ : state) {
    ecc::ChipkillWord word = ecc::ChipkillEncode(lo, hi);
    word.FlipBit(0, static_cast<int>(lo % 72));
    const auto decoded = ecc::ChipkillDecode(word);
    benchmark::DoNotOptimize(decoded.data[0]);
    lo = lo * 6364136223846793005ULL + 1;
  }
}
BENCHMARK(BM_ChipkillEncodeDecode);

void BM_SensorSample(benchmark::State& state) {
  const sensors::Environment env;
  const SimTime base = SimTime::FromCivil(2019, 6, 1);
  std::int64_t minute = 0;
  for (auto _ : state) {
    const auto reading = env.Sensors().Sample(
        static_cast<NodeId>(minute % 2592), SensorKind::kDimmsACEG,
        base.AddMinutes(minute));
    benchmark::DoNotOptimize(reading.value);
    ++minute;
  }
}
BENCHMARK(BM_SensorSample);

void BM_SensorWindowMean(benchmark::State& state) {
  const sensors::Environment env;
  const SimTime base = SimTime::FromCivil(2019, 6, 1);
  std::int64_t day = 0;
  for (auto _ : state) {
    const TimeWindow window{base.AddDays(day % 60), base.AddDays(day % 60 + 7)};
    const double mean =
        env.Sensors().MeanOverWindow(static_cast<NodeId>(day % 2592),
                                     SensorKind::kCpu0Temp, window, 128);
    benchmark::DoNotOptimize(mean);
    ++day;
  }
}
BENCHMARK(BM_SensorWindowMean);

// Serialize the ingest scaling sweep.  The JSON is hand-rolled on purpose —
// four numeric fields per thread count don't justify a dependency.
void WriteIngestSweepJson(const std::string& path) {
  const auto& results = IngestSweepResults();
  if (results.empty()) return;  // sweep filtered out by --benchmark_filter
  const auto& fixture = SharedIngestFile();
  const unsigned cores = std::thread::hardware_concurrency();
  double serial_rate = 0.0;
  std::ofstream out(path);
  out << "{\n  \"file_bytes\": " << fixture.bytes
      << ",\n  \"file_records\": " << fixture.records
      << ",\n  \"host_hardware_concurrency\": " << cores;
  if (const auto& [seconds, iters] = ParseOnlyResult(); seconds > 0.0 && iters > 0) {
    const double per_iter = seconds / static_cast<double>(iters);
    out << ",\n  \"parse_only_mb_per_s\": "
        << static_cast<double>(fixture.bytes) / 1e6 / per_iter
        << ",\n  \"parse_only_records_per_s\": "
        << static_cast<double>(fixture.records) / per_iter;
  }
  out << ",\n  \"sweep\": [\n";
  bool first = true;
  for (const auto& [threads, totals] : results) {
    const auto& [seconds, iters] = totals;
    if (seconds <= 0.0 || iters <= 0) continue;
    const double per_iter = seconds / static_cast<double>(iters);
    const double mb_per_s = static_cast<double>(fixture.bytes) / 1e6 / per_iter;
    const double records_per_s =
        static_cast<double>(fixture.records) / per_iter;
    if (threads == 1) serial_rate = mb_per_s;
    // threads_requested is what the sweep asked for; the detected core count
    // above is what the host can actually run.  A row with "oversubscribed":
    // true measures contention, not scaling — readers (and the CI gate)
    // must not interpret its speedup as the parallel ingest's ceiling.
    const bool oversubscribed =
        cores != 0 && static_cast<unsigned>(threads) > cores;
    out << (first ? "" : ",\n") << "    {\"threads\": " << threads
        << ", \"threads_requested\": " << threads
        << ", \"oversubscribed\": " << (oversubscribed ? "true" : "false")
        << ", \"mb_per_s\": " << mb_per_s
        << ", \"records_per_s\": " << records_per_s << ", \"speedup_vs_1\": "
        << (serial_rate > 0.0 ? mb_per_s / serial_rate : 0.0) << "}";
    first = false;
  }
  out << "\n  ]\n}\n";
  std::fprintf(stderr, "wrote ingest scaling sweep to %s\n", path.c_str());
}

}  // namespace
}  // namespace astra

// BENCHMARK_MAIN, plus the BENCH_ingest.json side artifact.  Note that on a
// host with fewer cores than the sweep's widest point the >1-thread rows
// measure oversubscription, not scaling — CI runs this on multicore runners.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  astra::WriteIngestSweepJson("BENCH_ingest.json");
  std::error_code ec;
  std::filesystem::remove(
      std::filesystem::temp_directory_path() / "astra_bench_ingest.tsv", ec);
  return 0;
}
