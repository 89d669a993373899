// Shared types for the benchmark's workloads.
//
// Every workload reports the metrics BENCHMARK.json lists, each defined in
// that workload's own terms, plus its named metrics (analyze_serial_s,
// fleet_query_p90_ms, logs.ingest_s, ...) on stderr and in the results
// file.  NOTES.md maps one onto the other.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.hpp"
#include "host.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 20190120;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir;  // scratch space inside the checkout
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One timed call: its wall seconds and the CPU seconds every thread of the
// process spent inside it.  The lanes' end-to-end metrics are CPU time:
// on a shared host the wall time of the same work moves with what the
// neighbours run, while CPU time leaves out the time the host gave the
// vCPU to someone else (steal) and the time spent waiting on the disk.
struct Timing {
  double wall_s = 0.0;
  double cpu_s = 0.0;

  Timing& operator+=(const Timing& other) {
    wall_s += other.wall_s;
    cpu_s += other.cpu_s;
    return *this;
  }
};

// Medians of the wall and of the CPU seconds, each on its own; nullopt when
// `timings` is empty.
[[nodiscard]] std::optional<Timing> MedianTiming(const std::vector<Timing>& timings);

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // failed output checks

  // BENCHMARK.json metrics this workload supplies (main adds peak_rss_mb
  // and the host and trace metrics).
  std::vector<Metric> listed;
  // The workload's named metrics, for stderr and the results file.
  std::vector<Metric> named;
  // Every lane's untraced samples as (wall, CPU) seconds, for the results
  // file: the spread behind each median.
  std::vector<std::pair<std::string, std::vector<Timing>>> samples;

  // Record one operation (a pass, query or trial) and its checks; `error`
  // empty means every check held.  A failed operation never yields a time.
  bool Op(const std::string& error) {
    ++attempted;
    if (error.empty()) return true;
    ++failed;
    failures.push_back(error);
    return false;
  }
  void Add(std::vector<Metric>& into, const std::string& name, double value,
           const std::string& unit) {
    into.push_back({name, value, unit});
  }
};

inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

template <typename Call>
Timing Timed(Call&& call) {
  const double cpu_start = ProcessCpuSeconds();
  const auto start = std::chrono::steady_clock::now();
  call();
  return {SecondsSince(start), ProcessCpuSeconds() - cpu_start};
}

// Timed passes: keeps calling pass(index) while the next pass is expected
// to end inside the `seconds` window (judged from the median pass so far),
// and always runs at least `min_passes`.  Returns the number of passes.
template <typename Pass>
int RunPasses(double seconds, int min_passes, Pass&& pass) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<double> durations;
  for (int index = 0;; ++index) {
    if (index >= min_passes) {
      std::vector<double> sorted = durations;
      std::sort(sorted.begin(), sorted.end());
      const double typical = sorted[sorted.size() / 2];
      if (SecondsSince(start) + typical > seconds) return index;
    }
    const auto pass_start = std::chrono::steady_clock::now();
    pass(index);
    durations.push_back(SecondsSince(pass_start));
  }
}

// One lane's timings, split by whether the tracer was recording.  Untraced
// runs only fill `plain`; traced runs alternate, so traced minus plain is
// the tracing overhead measured inside one run.
struct LaneTimes {
  std::vector<Timing> plain;
  std::vector<Timing> traced;

  void Add(const Tracer& tracer, const Timing& timing) {
    (tracer.Recording() ? traced : plain).push_back(timing);
  }
};

// Set-up repetitions per run; setup_s reports their median.
inline constexpr int kSetupReps = 3;

// Runs `generate` kSetupReps times and returns the median wall and CPU
// seconds (nullopt when a repetition failed).  Untraced runs generate in a
// child process, whose CPU time wait4 reports, so the peak RSS they report
// belongs to the measured phase, not to set-up; traced runs generate
// in-process so the set-up spans are kept.  Either way `generate` hands its
// results on through files.
std::optional<Timing> RepeatSetup(const RunConfig& config, Tracer& tracer,
                                  const std::function<bool()>& generate);
bool WriteText(const std::string& path, const std::string& text);
std::optional<std::string> ReadText(const std::string& path);

// Reports a lane's named medians: `<name>_s` (wall) and `<name>_cpu_s`
// from untraced passes and, in a traced run, the same with `.traced` plus
// their `.overhead`, the tracing overhead.  Returns the untraced medians
// (0 when there are none).
Timing AddLane(Outcome& outcome, const std::string& name, const LaneTimes& lane);
// Reports set-up by name: `setup_wall_s` and `setup_cpu_s`.  BENCHMARK.json's
// `setup_s` is the CPU seconds, for the reason the lanes use CPU time, and
// so that the disk's fsync waits stay out of it.
void AddSetup(Outcome& outcome, const Timing& setup);

// The analyze and serve workloads' failure telemetry: the campaign
// `astra-mrt simulate --nodes=432` writes at its default campaign seed
// (952,759 memory-error records).  It is fixed because its content sets
// the work: at a fixed node count, record totals range from 430k to 1.36M
// across campaign seeds, and at a fixed record total the fault mix still
// moved live query p50 from 79 to 120 ms across campaign seeds 1-5.
inline constexpr std::uint64_t kCliDefaultSeed = 20190120;
inline constexpr int kCampaignNodes = 432;
astra::faultsim::CampaignResult SimulateCliCampaign(Tracer& tracer);
// The analyze workload's input: that campaign with its nodes relabeled by
// SizeClassRelabeling(seed), so each seed gives another dataset of the
// same size and shape.
astra::faultsim::CampaignResult RelabeledCliCampaign(std::uint64_t seed,
                                                     Tracer& tracer);

// `astra-mrt analyze DIR --threads=N` (CmdAnalyze's calls), with the
// report rendered into `report`; `error` names the first failed check.
struct Lane {
  std::string report;
  std::string error;
};
Lane AnalyzeLane(const astra::core::DatasetPaths& paths, unsigned threads,
                 Tracer& tracer, astra::core::DatasetIngest* keep);

Outcome RunAnalyzeWorkload(const RunConfig& config, Tracer& tracer);
Outcome RunServeWorkload(const RunConfig& config, Tracer& tracer);
Outcome RunCampaignWorkload(const RunConfig& config, Tracer& tracer);

}  // namespace perfbench
