// analyze_dirty: the CLI default campaign, relabeled by the workload seed
// (RelabeledCliCampaign), after every corruption mode at the CLI default
// severity, pushed through the three batch lanes users run on it: `analyze`
// at the default --threads=0, `analyze --threads=1`, and one-pass
// `watch --checkpoint`.  The calls mirror CmdAnalyze and CmdWatch in
// src/tools/astra_mrt_cli.cpp.
#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "bench.hpp"
#include "core/dataset.hpp"
#include "core/report.hpp"
#include "logs/corruption.hpp"
#include "stats.hpp"
#include "stream/checkpoint.hpp"
#include "stream/monitor.hpp"
#include "util/retry.hpp"

namespace perfbench {
namespace {

using namespace astra;

constexpr double kCliSeverity = 0.25;  // `astra-mrt corrupt` default
// The corruption seed is fixed.  Four modes act per file or per node and
// either fire or not (header drift, day-range drop, tail chop, clock
// resets), so across corruption seeds 1-10 `astra-mrt analyze
// --threads=1` over the damaged campaign took 2.11 to 2.71 s of user CPU.
// Under seed 7 the memory stream's header drifts, so every line goes
// through the header remap.
constexpr std::uint64_t kCorruptionSeed = 7;

bool ReportsConsistent(const logs::IngestReport& memory,
                       const logs::IngestReport* het) {
  return memory.Consistent() && (het == nullptr || het->Consistent());
}

}  // namespace

Lane AnalyzeLane(const core::DatasetPaths& paths, unsigned threads,
                 Tracer& tracer, core::DatasetIngest* keep) {
  const logs::IngestPolicy policy;
  const bool serial = threads == 1;
  Lane lane;
  core::DatasetIngest ingest;
  {
    ScopedSpan span(tracer, serial ? "logs.ingest" : "logs.ingest_parallel");
    ingest = core::IngestFailureData(paths, policy, threads);
  }
  if (ingest.status != core::DatasetStatus::kOk) {
    lane.error = "analyze: ingest status not ok";
    return lane;
  }
  const logs::IngestReport* het = ingest.het_missing ? nullptr : &ingest.het_report;
  if (!ReportsConsistent(ingest.memory_report, het)) {
    lane.error = "analyze: IngestReport::Consistent() failed";
    return lane;
  }
  std::ostringstream out;
  if (ingest.memory_errors.empty()) {
    core::RenderIngestReport(out, policy, ingest.memory_report, het);
    core::RenderEmptyDatasetReport(out, ingest.quality);
  } else {
    NodeId max_node = 0;
    SimTime lo = ingest.memory_errors.front().timestamp;
    SimTime hi = lo;
    for (const auto& r : ingest.memory_errors) {
      max_node = std::max(max_node, r.node);
      lo = std::min(lo, r.timestamp);
      hi = std::max(hi, r.timestamp);
    }
    SimTime het_start = hi;
    for (const auto& r : ingest.het_events) {
      het_start = std::min(het_start, r.timestamp);
    }
    core::AnalysisArtifacts artifacts;
    {
      ScopedSpan span(tracer, serial ? "core.build" : "core.build_parallel");
      artifacts = core::BuildAnalysisArtifacts(
          ingest.memory_errors, ingest.het_events, max_node + 1,
          {lo, hi.AddSeconds(1)}, het_start, &ingest.quality, threads);
    }
    ScopedSpan span(tracer, "core.render");
    core::RenderIngestReport(out, policy, ingest.memory_report, het);
    core::RenderAnalysisReport(out, artifacts);
  }
  lane.report = std::move(out).str();
  if (keep != nullptr) *keep = std::move(ingest);
  return lane;
}

namespace {

// `astra-mrt watch DIR --checkpoint=FILE` on a fresh checkpoint path.
Lane WatchLane(const core::DatasetPaths& paths, const std::string& checkpoint,
               std::uint64_t seed, Tracer& tracer) {
  const logs::IngestPolicy policy;
  RetryPolicy retry;
  retry.max_attempts = 10;
  retry.base_delay_ms = 50;
  retry.seed = seed;
  stream::MonitorConfig config;
  config.policy = policy;
  config.alerts.window_seconds = 3600;
  config.io_retry = retry;
  Lane lane;
  stream::StreamMonitor monitor(paths, config);
  if (!stream::RemoveStaleCheckpointTmp(checkpoint)) {
    lane.error = "watch: cannot remove stale checkpoint tmp";
    return lane;
  }
  stream::MonitorStatus status;
  {
    ScopedSpan span(tracer, "stream.finish");
    status = monitor.Finish();
  }
  (void)monitor.DrainAlerts();
  if (status == stream::MonitorStatus::kMissingPrimary ||
      status == stream::MonitorStatus::kRejected) {
    lane.error = "watch: monitor did not finish cleanly";
    return lane;
  }
  const logs::IngestReport* het = monitor.HetMissing() ? nullptr : &monitor.HetReport();
  if (!ReportsConsistent(monitor.MemoryReport(), het)) {
    lane.error = "watch: IngestReport::Consistent() failed";
    return lane;
  }
  std::ostringstream out;
  if (monitor.Delivered() == 0) {
    core::RenderIngestReport(out, policy, monitor.MemoryReport(), het);
    core::RenderEmptyDatasetReport(out, monitor.Quality());
  } else {
    core::AnalysisArtifacts artifacts;
    {
      ScopedSpan span(tracer, "stream.artifacts");
      artifacts = monitor.Artifacts();
    }
    ScopedSpan span(tracer, "core.render");
    core::RenderIngestReport(out, policy, monitor.MemoryReport(), het);
    core::RenderAnalysisReport(out, artifacts);
  }
  {
    ScopedSpan span(tracer, "stream.checkpoint_save");
    if (stream::SaveMonitorCheckpoint(monitor, checkpoint, retry,
                                      ThreadSleeper()) !=
        stream::CheckpointStatus::kOk) {
      lane.error = "watch: checkpoint save failed";
      return lane;
    }
  }
  lane.report = std::move(out).str();
  return lane;
}

// Layer-only calls a traced pass adds: parse without repairs, and the
// engine set's Observe and Finalize over the serial lane's records.
void LayerProbes(const core::DatasetPaths& paths,
                 const core::DatasetIngest& ingest, Tracer& tracer) {
  {
    ScopedSpan span(tracer, "logs.parse_only");
    (void)core::IngestFailureData(paths, logs::IngestPolicy::Raw(), 1);
  }
  core::AnalysisEngineSet engines;
  {
    ScopedSpan span(tracer, "core.observe");
    engines.ObserveMemoryBatch(ingest.memory_errors);
    for (const auto& record : ingest.het_events) engines.ObserveHet(record);
  }
  ScopedSpan span(tracer, "core.finalize");
  (void)engines.Finalize(engines.InferredContext(), &ingest.quality);
}

}  // namespace

Outcome RunAnalyzeWorkload(const RunConfig& config, Tracer& tracer) {
  Outcome outcome;
  const std::string dir = config.work_dir + "/dataset";
  const std::string checkpoint = config.work_dir + "/watch.ckp";
  const auto paths = core::DatasetPaths::InDirectory(dir);

  // Set-up: simulate, write and corrupt the dataset.
  const auto generate = [&] {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const faultsim::CampaignResult result = RelabeledCliCampaign(config.seed, tracer);
    {
      ScopedSpan span(tracer, "logs.write");
      if (!core::WriteFailureData(paths, result)) return false;
    }
    logs::CorruptionConfig corruption;
    corruption.seed = kCorruptionSeed;
    corruption.SetAll(kCliSeverity);
    ScopedSpan span(tracer, "logs.corrupt");
    return logs::CorruptionInjector(corruption).CorruptDirectory(dir).has_value();
  };
  const auto generate_t = RepeatSetup(config, tracer, generate);
  if (!generate_t) {
    outcome.Op("set-up: cannot generate the dataset");
    return outcome;
  }

  LaneTimes serial;
  LaneTimes parallel;
  LaneTimes watch;
  core::DatasetIngest kept;
  std::string expected;
  std::uintmax_t checkpoint_bytes = 0;

  // One pass: the lanes interleaved as parallel, serial, watch, with every
  // output checked against the serial report.  Untraced timed passes leave
  // the serial lane out: it is not an end-to-end metric, and without it a
  // run holds about five passes instead of three.
  const auto pass = [&](bool with_serial) {
    Lane a;
    Lane b;
    Lane c;
    malloc_trim(0);
    const Timing parallel_t = Timed([&] { a = AnalyzeLane(paths, 0, tracer, nullptr); });
    Timing serial_t;
    if (with_serial) {
      malloc_trim(0);
      serial_t = Timed([&] { b = AnalyzeLane(paths, 1, tracer, &kept); });
      if (expected.empty()) expected = b.report;
    }
    std::filesystem::remove(checkpoint);
    malloc_trim(0);
    const Timing watch_t =
        Timed([&] { c = WatchLane(paths, checkpoint, config.seed, tracer); });
    std::string error;
    for (const Lane* lane : {&a, &b, &c}) {
      if (lane == &b && !with_serial) continue;
      if (error.empty()) error = lane->error;
      if (error.empty() && lane->report != expected) {
        error = "serial, parallel and watch reports differ";
      }
    }
    if (!outcome.Op(error)) return false;
    parallel.Add(tracer, parallel_t);
    if (with_serial) serial.Add(tracer, serial_t);
    watch.Add(tracer, watch_t);
    checkpoint_bytes = std::filesystem::file_size(checkpoint);
    if (tracer.Recording()) LayerProbes(paths, kept, tracer);
    return true;
  };

  // Warm-up: one untimed pass with every lane, counted in set-up; its
  // serial lane is the one an untraced run reports.
  tracer.SetRecording(false);
  bool warm_ok = false;
  Timing setup_t = *generate_t;
  setup_t += Timed([&] { warm_ok = pass(true); });
  if (!warm_ok) return outcome;
  tracer.SetRecording(true);
  parallel = watch = LaneTimes{};
  if (config.trace) serial = LaneTimes{};

  bool ok = true;
  RunPasses(config.seconds, 3, [&](int index) {
    if (!ok) return;
    if (config.trace) tracer.SetRecording(index % 2 == 0);
    ScopedSpan span(tracer, "bench.pass");
    ok = pass(config.trace);
  });
  tracer.SetRecording(true);
  if (!ok) return outcome;

  const Timing parallel_t = AddLane(outcome, "analyze", parallel);
  AddLane(outcome, "analyze_serial", serial);
  AddLane(outcome, "watch", watch);
  AddSetup(outcome, setup_t);

  const auto& memory = kept.memory_report;
  outcome.Add(outcome.named, "logs.lines", static_cast<double>(memory.stats.total_lines), "count");
  outcome.Add(outcome.named, "logs.delivered", static_cast<double>(memory.Delivered()), "count");
  outcome.Add(outcome.named, "logs.quarantined", static_cast<double>(memory.stats.malformed), "count");
  outcome.Add(outcome.named, "logs.duplicates_removed", static_cast<double>(memory.duplicates_removed), "count");
  outcome.Add(outcome.named, "logs.reordered", static_cast<double>(memory.reordered), "count");
  outcome.Add(outcome.named, "stream.checkpoint_bytes", static_cast<double>(checkpoint_bytes), "count");

  if (config.trace) {
    outcome.Add(outcome.listed, "records", static_cast<double>(memory.Delivered()), "count");
    outcome.Add(outcome.listed, "trace.overhead_ms",
                1e3 * (MedianTiming(parallel.traced)->cpu_s - MedianTiming(parallel.plain)->cpu_s),
                "ms");
  } else {
    outcome.Add(outcome.listed, "setup_s", setup_t.cpu_s, "s");
    outcome.Add(outcome.listed, "op_ms", 1e3 * parallel_t.cpu_s, "ms");
  }
  return outcome;
}

}  // namespace perfbench
