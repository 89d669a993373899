// astra-mrt — command-line front end for the toolkit.
//
//   astra-mrt simulate --out=DIR [--nodes=N] [--seed=S] [--sensor-stride=MIN]
//                      [--live] [--live-batch=N] [--live-delay-ms=MS]
//       Run a campaign and write the full §2.4-format dataset to DIR.  With
//       --live the failure logs are appended in timestamp order, in batches
//       with a delay between them, so a `watch --follow` can tail them as
//       they grow.
//
//   astra-mrt analyze DIR [--strict|--lenient] [--threads=N]
//                     [--max-malformed=F] [--reorder-window=SECONDS]
//       Ingest a dataset directory (simulated or real) and print the
//       complete reliability report: fault modes, positional verdicts,
//       concentration, monthly series, DUE/FIT, predictor flags.
//
//   astra-mrt watch DIR [--follow] [--poll-ms=MS] [--idle-exit-ms=MS]
//                   [--checkpoint=FILE] [--strict|--lenient]
//                   [--max-malformed=F] [--reorder-window=SECONDS]
//                   [--alert-window=SEC] [--alert-fleet-ces=N]
//                   [--alert-node-ces=N] [--retry-max=N] [--retry-base-ms=MS]
//                   [--seed=S]
//       Stream the dataset through the incremental analyzers.  Without
//       --follow, one pass over the current file contents prints a report
//       byte-identical to `analyze`; with --follow the files are tailed as
//       they grow, alerts stream to stderr, and the final report is printed
//       on exit.  --checkpoint saves resumable pipeline state (crash-safe:
//       fsync + atomic rename; a stale .tmp from a killed run is swept on
//       startup).  Environmental I/O failures — unreadable logs, checkpoint
//       read/write errors, a primary log that has not appeared yet — are
//       retried under exponential backoff: --retry-max bounds the attempts
//       and --retry-base-ms sets the first delay (doubling, capped at 2s,
//       jittered from --seed).  Faults that outlive the budget follow the
//       exit-code contract below; degradable ones (e.g. a het_events stream
//       that never appears) are instead reported as data-quality caveats.
//
//   astra-mrt report [--nodes=N] [--seed=S] [--threads=N]
//       Simulate + analyze in memory (no files) and print the report.
//
//   astra-mrt campaign [--grid=FILE] [--trials=N] [--nodes=N] [--seed=S]
//                      [--threads=N] [--json]
//       Run a what-if scenario grid (ECC scheme x fault-rate multiplier x
//       mitigation policy x thermal profile), N seeded trials per cell,
//       entirely in memory, and print per-cell CE/DUE/SDC/FIT means with
//       bootstrap 95% intervals plus deltas against the Astra baseline
//       cell.  Without --grid the default 2x2x2 headline grid runs;
//       --trials/--nodes/--seed override the grid file's values.  Output is
//       byte-identical at any --threads value.
//
//   astra-mrt corrupt DIR [--severity=F] [--seed=S] [--modes=a,b,...]
//       Deterministically degrade a dataset directory the way field
//       collection does (truncation, duplicates, clock skew, schema
//       drift, ...).  Use it to exercise `analyze` against dirty data.
//
// Analyze/watch ingest policy: lenient by default (quarantine-and-continue,
// with repairs); --strict rejects the dataset once the malformed fraction
// exceeds --max-malformed (default 0.05).
//
// Every flag is declared once, in CliSpec's table, with the commands that
// read it; the usage text (`astra-mrt help`) is generated from it, and a
// flag a command does not read is refused like an unknown one.
//
// Exit codes: 0 success, 1 bad usage, 2 I/O failure (fatal: persists past
//             the bounded retry budget), 3 dataset rejected by the strict
//             ingest policy.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "campaign/render.hpp"
#include "campaign/runner.hpp"
#include "core/dataset.hpp"
#include "core/report.hpp"
#include "util/file_io.hpp"
#include "util/flags.hpp"
#include "logs/corruption.hpp"
#include "replace/replacement_sim.hpp"
#include "stream/checkpoint.hpp"
#include "stream/monitor.hpp"
#include "util/io_faults.hpp"
#include "util/retry.hpp"
#include "util/strings.hpp"

namespace astra {
namespace {

struct CliOptions {
  int nodes = 6 * kNodesPerRack;
  std::uint64_t seed = 20190120;
  int sensor_stride_minutes = 60;
  unsigned threads = 0;  // shard/worker count; 0 = hardware concurrency
  std::string out_dir;
  std::string positional;  // the dataset directory of analyze, watch, corrupt

  // analyze/watch ingest policy
  bool strict = false;
  logs::IngestPolicy policy;
  // corrupt
  double severity = 0.25;
  std::string modes;  // comma-separated subset; empty = all modes
  // simulate --live
  bool live = false;
  int live_batch = 500;
  int live_delay_ms = 25;
  // watch
  bool follow = false;
  int poll_ms = 200;
  int idle_exit_ms = 0;  // 0 = follow forever
  std::string checkpoint;
  std::int64_t alert_window_seconds = 3600;
  std::uint64_t alert_fleet_ces = 0;
  std::uint64_t alert_node_ces = 0;
  // Bounded-backoff budget for environmental I/O failure (watch).  The
  // defaults give up after ~9s of waiting on a log that never appears —
  // generous enough to ride out a slow producer, bounded enough that a
  // wrong path fails loudly instead of hanging forever.
  int retry_max = 10;
  std::int64_t retry_base_ms = 50;
  // campaign
  std::string grid_file;
  bool json = false;
  int trials = 0;  // 0 = grid file / default
};

// One bit per command, in CliSpec's order.
constexpr flags::Commands kSimulate = 1, kAnalyze = 2, kWatch = 4, kReport = 8,
                          kCampaign = 16, kCorrupt = 32;

// The command-line surface: each flag, the field it sets, its accepted range
// and the commands that read it.
flags::Spec CliSpec(CliOptions& o) {
  constexpr flags::Commands kIngest = kAnalyze | kWatch;
  constexpr flags::Commands kFleet = kSimulate | kReport | kCampaign;
  flags::Spec spec{
      .program = "astra-mrt",
      .summary = "astra-mrt — Astra Memory Reliability Toolkit",
      .commands = {{"simulate"}, {"analyze", "DIR"}, {"watch", "DIR"}, {"report"},
                   {"campaign"}, {"corrupt", "DIR"}},
      .epilogue =
          "campaign grid file: key=value lines; axes `ecc` (secded, chipkill,\n"
          "  ondie), `rate` (positive multipliers), `policy` (astra, none,\n"
          "  aggressive), `thermal` (astra, cool, hot) as comma-separated lists;\n"
          "  scalars `trials`, `nodes`, `seed`.  `#` starts a comment.\n"
          "\n"
          "corruption modes: "};
  for (int m = 0; m < logs::kCorruptionModeCount; ++m) {
    spec.epilogue += m == 0 ? "" : ", ";
    spec.epilogue += logs::CorruptionModeName(static_cast<logs::CorruptionMode>(m));
  }
  spec.epilogue += '\n';
  spec.flags = {
      {"--out", "DIR", &o.out_dir, kSimulate},
      {"--nodes", "N", &o.nodes, {1, kNumNodes}, kFleet},
      {"--seed", "S", &o.seed, {}, kFleet | kWatch | kCorrupt},
      {"--sensor-stride", "MIN", &o.sensor_stride_minutes, {1}, kSimulate},
      {"--live", &o.live, true, kSimulate},
      {"--live-batch", "N", &o.live_batch, {1}, kSimulate},
      {"--live-delay-ms", "MS", &o.live_delay_ms, {0}, kSimulate},
      {"--strict", &o.strict, true, kIngest},
      {"--lenient", &o.strict, false, kIngest},
      {"--threads", "N", &o.threads, {1, 1024}, kAnalyze | kReport | kCampaign},
      {"--max-malformed", "F", &o.policy.max_malformed_fraction, {0, 1}, kIngest},
      {"--reorder-window", "SECONDS", &o.policy.reorder_window_seconds, {0}, kIngest},
      {"--follow", &o.follow, true, kWatch},
      {"--poll-ms", "MS", &o.poll_ms, {1}, kWatch},
      {"--idle-exit-ms", "MS", &o.idle_exit_ms, {0}, kWatch},
      {"--checkpoint", "FILE", &o.checkpoint, kWatch},
      {"--alert-window", "SEC", &o.alert_window_seconds, {1}, kWatch},
      {"--alert-fleet-ces", "N", &o.alert_fleet_ces, {1}, kWatch},
      {"--alert-node-ces", "N", &o.alert_node_ces, {1}, kWatch},
      {"--retry-max", "N", &o.retry_max, {1, 100}, kWatch},
      {"--retry-base-ms", "MS", &o.retry_base_ms, {0}, kWatch},
      {"--grid", "FILE", &o.grid_file, kCampaign},
      {"--trials", "N", &o.trials, {1, 10'000}, kCampaign},
      {"--json", &o.json, true, kCampaign},
      {"--severity", "F", &o.severity, {0, 1}, kCorrupt},
      {"--modes", "a,b,...", &o.modes, kCorrupt},
  };
  return spec;
}

// Append the failure logs in timestamp order, a batch at a time with a flush
// and a pause between batches — a deterministic stand-in for a fleet's
// telemetry daemons, for exercising `watch --follow` against growing files.
int LiveAppendFailureData(const core::DatasetPaths& paths,
                          const faultsim::CampaignResult& campaign,
                          int batch_size, int delay_ms) {
  logs::LogFileWriter<logs::MemoryErrorRecord> errors(paths.memory_errors);
  logs::LogFileWriter<logs::HetRecord> het(paths.het_events);
  if (!errors.Ok() || !het.Ok()) return 2;

  const auto& memory = campaign.memory_errors;
  const auto& hets = campaign.het_records;
  std::size_t mi = 0;
  std::size_t hi = 0;
  int in_batch = 0;
  while (mi < memory.size() || hi < hets.size()) {
    const bool take_memory =
        hi >= hets.size() ||
        (mi < memory.size() && memory[mi].timestamp <= hets[hi].timestamp);
    if (take_memory) {
      errors.Append(memory[mi++]);
    } else {
      het.Append(hets[hi++]);
    }
    if (++in_batch >= batch_size) {
      in_batch = 0;
      errors.Flush();
      het.Flush();
      if (!errors.Ok() || !het.Ok()) return 2;
      if (delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
    }
  }
  return errors.Finish() && het.Finish() ? 0 : 2;
}

int CmdSimulate(const CliOptions& options) {
  if (options.out_dir.empty()) {
    std::cerr << "simulate: --out=DIR is required\n";
    return 1;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) {
    std::cerr << "simulate: cannot create " << options.out_dir << ": " << ec.message()
              << '\n';
    return 2;
  }
  const auto paths = core::DatasetPaths::InDirectory(options.out_dir);

  faultsim::CampaignConfig config;
  config.SeedFrom(options.seed);
  config.node_count = options.nodes;
  std::cerr << "simulating " << options.nodes << " nodes (seed " << options.seed
            << ") ...\n";
  const auto campaign = faultsim::FleetSimulator(config).Run();

  const sensors::Environment environment;
  auto replacement_config = replace::ReplacementSimConfig::AstraDefaults();
  replacement_config.seed = options.seed;
  replacement_config.node_count = options.nodes;
  const replace::ReplacementSimulator replacements(replacement_config);
  const auto replacement_campaign = replacements.Run();

  core::SensorDumpOptions sensor_options;
  sensor_options.stride_minutes = options.sensor_stride_minutes;
  sensor_options.node_limit = std::min(options.nodes, 64);
  // The slow-growing failure logs go last in live mode, so a watcher sees
  // the static streams complete before the tailed ones start growing.
  if (!core::WriteSensorData(paths, environment, config.window, options.nodes,
                             sensor_options) ||
      !core::WriteInventoryData(paths, replacements, replacement_campaign, 7)) {
    std::cerr << "simulate: failed writing dataset to " << options.out_dir << '\n';
    return 2;
  }
  if (options.live) {
    std::cerr << "appending failure logs live (batch " << options.live_batch
              << ", delay " << options.live_delay_ms << "ms) ...\n";
    if (LiveAppendFailureData(paths, campaign, options.live_batch,
                              options.live_delay_ms) != 0) {
      std::cerr << "simulate: failed writing dataset to " << options.out_dir << '\n';
      return 2;
    }
  } else if (!core::WriteFailureData(paths, campaign)) {
    std::cerr << "simulate: failed writing dataset to " << options.out_dir << '\n';
    return 2;
  }
  std::cerr << "wrote " << WithThousands(campaign.memory_errors.size())
            << " memory error records to " << options.out_dir << '\n';
  return 0;
}

int CmdAnalyze(const CliOptions& options) {
  if (options.positional.empty()) {
    std::cerr << "analyze: dataset directory required\n";
    return 1;
  }
  const auto paths = core::DatasetPaths::InDirectory(options.positional);
  const auto ingest = core::IngestFailureData(paths, options.policy, options.threads);
  if (ingest.status == core::DatasetStatus::kMissingPrimary) {
    std::cerr << "analyze: cannot read " << paths.memory_errors << '\n';
    return 2;
  }

  // Ingest accounting is printed before anything else, even when every line
  // parsed — "0 quarantined" is a claim the reader should get to see.
  core::RenderIngestReport(std::cout, options.policy, ingest.memory_report,
                           ingest.het_missing ? nullptr : &ingest.het_report);

  if (ingest.status == core::DatasetStatus::kRejected) {
    std::cerr << "analyze: dataset rejected by strict ingest policy "
                 "(malformed fraction exceeds "
              << FormatDouble(100.0 * options.policy.max_malformed_fraction, 1)
              << "% budget); rerun with --lenient to quarantine and continue\n";
    return 3;
  }

  if (ingest.memory_errors.empty()) {
    // Nothing usable survived (e.g. missing-data corruption at full severity).
    // An empty dataset is a degenerate but valid lenient outcome: report it
    // instead of inferring a time window from no records.
    core::RenderEmptyDatasetReport(std::cout, ingest.quality);
    return 0;
  }

  // Infer span and window from the data itself.
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
  const auto artifacts = core::BuildAnalysisArtifacts(
      ingest.memory_errors, ingest.het_events, max_node + 1,
      {lo, hi.AddSeconds(1)}, het_start, &ingest.quality, options.threads);
  core::RenderAnalysisReport(std::cout, artifacts);
  return 0;
}

int CmdWatch(const CliOptions& options) {
  if (options.positional.empty()) {
    std::cerr << "watch: dataset directory required\n";
    return 1;
  }
  const auto paths = core::DatasetPaths::InDirectory(options.positional);

  // One backoff budget governs every environmental retry in this command:
  // in-poll map retries (back-to-back — the poll/probe cadence paces them),
  // checkpoint reads/writes, and waiting for the primary log to appear.
  RetryPolicy retry;
  retry.max_attempts = options.retry_max;
  retry.base_delay_ms = options.retry_base_ms;
  retry.seed = options.seed;

  stream::MonitorConfig config;
  config.policy = options.policy;
  config.alerts.window_seconds = options.alert_window_seconds;
  config.alerts.fleet_ce_threshold = options.alert_fleet_ces;
  config.alerts.node_ce_threshold = options.alert_node_ces;
  config.io_retry = retry;
  stream::StreamMonitor monitor(paths, config);

  if (!options.checkpoint.empty()) {
    // A crash mid-save can leave a torn `.tmp` sidecar; sweep it before the
    // first save would otherwise silently overwrite it.
    if (!stream::RemoveStaleCheckpointTmp(options.checkpoint)) {
      std::cerr << "watch: cannot remove stale checkpoint tmp "
                << options.checkpoint << ".tmp\n";
      return 2;
    }
    if (stream::CheckpointFileExists(options.checkpoint, retry)) {
      const auto status = stream::RestoreMonitorCheckpoint(
          monitor, options.checkpoint, retry, ThreadSleeper());
      if (status != stream::CheckpointStatus::kOk) {
        std::cerr << "watch: checkpoint rejected ("
                  << stream::CheckpointStatusMessage(status) << "): "
                  << options.checkpoint << '\n';
        return 2;
      }
      std::cerr << "watch: resumed from " << options.checkpoint << " ("
                << WithThousands(monitor.Delivered())
                << " records already seen)\n";
    }
  }

  // Alerts stream to stderr as they fire, so the report on stdout stays
  // byte-identical to `analyze` over the same records.
  const auto emit_alerts = [&monitor] {
    for (const auto& alert : monitor.DrainAlerts()) {
      std::cerr << alert.Message() << '\n';
    }
  };
  const auto save_checkpoint = [&]() -> bool {
    if (options.checkpoint.empty()) return true;
    const auto status = stream::SaveMonitorCheckpoint(
        monitor, options.checkpoint, retry, ThreadSleeper());
    if (status != stream::CheckpointStatus::kOk) {
      std::cerr << "watch: cannot write checkpoint " << options.checkpoint
                << '\n';
      return false;
    }
    return true;
  };

  if (options.follow) {
    // Tail the logs until nothing new arrives for --idle-exit-ms (or forever
    // when 0), checkpointing after every productive poll.  A primary log
    // that has never been readable is waited for under bounded backoff
    // instead of the fixed poll interval: the gaps grow until --retry-max
    // consecutive misses, then the watch gives up with the documented I/O
    // failure exit code rather than spinning forever on a wrong path.
    int idle_ms = 0;
    int missing_attempts = 0;
    const auto sleeper = ThreadSleeper();
    while (true) {
      const auto status = monitor.Poll();
      emit_alerts();
      if (status == stream::MonitorStatus::kRejected) break;
      if (status == stream::MonitorStatus::kMissingPrimary) {
        ++missing_attempts;
        if (missing_attempts >= options.retry_max) {
          std::cerr << "watch: cannot read " << paths.memory_errors << " after "
                    << missing_attempts << " attempts\n";
          return 2;
        }
        sleeper(BackoffDelayMs(retry, missing_attempts));
        continue;
      }
      missing_attempts = 0;
      if (status == stream::MonitorStatus::kAdvanced) {
        idle_ms = 0;
        if (!save_checkpoint()) return 2;
      } else {
        idle_ms += options.poll_ms;
        if (options.idle_exit_ms > 0 && idle_ms >= options.idle_exit_ms) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
    }
  } else {
    // Single pass: give a primary log that has not appeared yet (slow
    // producer, racing mount) the same bounded-backoff grace before the
    // final batch-equivalent sweep decides it is fatally unreadable.
    const auto sleeper = ThreadSleeper();
    for (int attempt = 1; attempt < options.retry_max &&
                          !io::Current().FileSize(paths.memory_errors).has_value();
         ++attempt) {
      sleeper(BackoffDelayMs(retry, attempt));
    }
    // Save before the books close: a checkpoint of a finished monitor would
    // make a resumed run ignore every line appended since.
    const auto status = monitor.Poll();
    emit_alerts();
    if (status != stream::MonitorStatus::kMissingPrimary &&
        status != stream::MonitorStatus::kRejected && !save_checkpoint()) {
      return 2;
    }
  }

  const auto final_status = monitor.Finish();
  emit_alerts();
  if (final_status == stream::MonitorStatus::kMissingPrimary) {
    std::cerr << "watch: cannot read " << paths.memory_errors << '\n';
    return 2;
  }
  core::RenderIngestReport(std::cout, options.policy, monitor.MemoryReport(),
                           monitor.HetMissing() ? nullptr : &monitor.HetReport());
  if (final_status == stream::MonitorStatus::kRejected) {
    std::cerr << "watch: dataset rejected by strict ingest policy "
                 "(malformed fraction exceeds "
              << FormatDouble(100.0 * options.policy.max_malformed_fraction, 1)
              << "% budget); rerun with --lenient to quarantine and continue\n";
    return 3;
  }
  if (monitor.Delivered() == 0) {
    core::RenderEmptyDatasetReport(std::cout, monitor.Quality());
    return 0;
  }
  core::RenderAnalysisReport(std::cout, monitor.Artifacts());
  return 0;
}

int CmdCorrupt(const CliOptions& options) {
  if (options.positional.empty()) {
    std::cerr << "corrupt: dataset directory required\n";
    return 1;
  }
  std::error_code ec;
  if (!std::filesystem::is_directory(options.positional, ec)) {
    std::cerr << "corrupt: not a directory: " << options.positional
              << (ec ? " (" + ec.message() + ")" : "") << '\n';
    return 2;
  }

  logs::CorruptionConfig config;
  config.seed = options.seed;
  if (options.modes.empty()) {
    config.SetAll(options.severity);
  } else {
    for (const auto name : SplitView(options.modes, ',')) {
      const auto mode = logs::CorruptionModeFromName(TrimView(name));
      if (!mode) {
        std::cerr << "corrupt: unknown mode '" << std::string(TrimView(name))
                  << "' (see `astra-mrt help` for the list)\n";
        return 1;
      }
      config.Set(*mode, options.severity);
    }
  }

  logs::CorruptionInjector injector(config);
  const auto report = injector.CorruptDirectory(options.positional);
  if (!report) {
    std::cerr << "corrupt: failed rewriting files in " << options.positional << '\n';
    return 2;
  }
  std::cout << "corrupted " << options.positional << " (seed " << options.seed
            << ", severity " << FormatDouble(options.severity, 2) << ")\n";
  for (int m = 0; m < logs::kCorruptionModeCount; ++m) {
    const auto mode = static_cast<logs::CorruptionMode>(m);
    if (report->AffectedBy(mode) == 0) continue;
    std::cout << "  " << logs::CorruptionModeName(mode) << ": "
              << WithThousands(report->AffectedBy(mode)) << " lines\n";
  }
  std::cout << "  files damaged: " << report->files_corrupted
            << "  files dropped: " << report->files_dropped
            << "  bytes chopped: " << WithThousands(report->bytes_chopped) << '\n';
  for (const auto& action : report->actions) {
    std::cout << "  " << action << '\n';
  }
  return 0;
}

int CmdReport(const CliOptions& options) {
  faultsim::CampaignConfig config;
  config.SeedFrom(options.seed);
  config.node_count = options.nodes;
  const auto campaign = faultsim::FleetSimulator(config).Run();
  const auto artifacts =
      core::AnalyzeCampaignResult(campaign, config, options.threads);
  core::RenderAnalysisReport(std::cout, artifacts);
  return 0;
}

int CmdCampaign(const CliOptions& options, const flags::Parsed& args) {
  campaign::ScenarioGrid grid;
  if (!options.grid_file.empty()) {
    const auto bytes = ReadFileBytes(options.grid_file);
    if (!bytes) {
      std::cerr << "campaign: cannot read " << options.grid_file << '\n';
      return 2;
    }
    std::string error;
    auto parsed = campaign::ParseScenarioGrid(*bytes, &error);
    if (!parsed) {
      std::cerr << "campaign: " << options.grid_file << ": " << error << '\n';
      return 1;
    }
    grid = std::move(*parsed);
  }
  // Explicit flags override the grid file; defaults never do.
  if (options.trials > 0) grid.trials = options.trials;
  if (args.Given("--nodes")) grid.node_count = options.nodes;
  if (args.Given("--seed")) grid.seed = options.seed;

  std::cerr << "campaign: " << grid.CellCount() << " cells x " << grid.trials
            << " trials over " << grid.node_count << " nodes each ...\n";
  const campaign::CampaignTable table =
      campaign::RunCampaign(grid, options.threads);
  std::cout << (options.json ? campaign::RenderCampaignJson(table)
                             : campaign::RenderCampaignText(table));
  return 0;
}

int Main(int argc, char** argv) {
  CliOptions options;
  const flags::Spec spec = CliSpec(options);
  if (argc < 2) {
    flags::PrintUsage(std::cout, spec);
    return 1;
  }
  const flags::Parsed parsed = flags::Parse(spec, argc, argv);
  if (const auto code = flags::Reply(spec, parsed)) return *code;
  if (!parsed.positionals.empty()) options.positional = parsed.positionals.front();
  if (options.strict) options.policy.mode = logs::IngestPolicy::Mode::kStrict;
  switch (parsed.command) {
    case kSimulate: return CmdSimulate(options);
    case kAnalyze: return CmdAnalyze(options);
    case kWatch: return CmdWatch(options);
    case kReport: return CmdReport(options);
    case kCampaign: return CmdCampaign(options, parsed);
    default: return CmdCorrupt(options);
  }
}

}  // namespace
}  // namespace astra

int main(int argc, char** argv) { return astra::Main(argc, argv); }
