// perfbench — the toolkit's end-to-end benchmark program.
//
//   perfbench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//             --work-dir=DIR --results-dir=DIR
//
// Workloads: analyze_dirty, serve_live, campaign_grid.
// Untraced runs print the end-to-end metrics; traced runs record spans
// around the same calls and print the per-layer metrics.  Either way the
// last stdout line is one JSON object: correct, attempted, failed, metrics.
// Named metrics, layer tables and the host diagnostics go to stderr and to
// DIR/<workload>-seed<N>-trace<0|1>.json; traced runs also write the spans
// as Chrome trace-event JSON.  Exit codes: 0 ok, 1 a failed output check,
// 2 bad usage.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "bench.hpp"
#include "host.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

Timing AddLane(Outcome& outcome, const std::string& name, const LaneTimes& lane) {
  if (!lane.plain.empty()) outcome.samples.emplace_back(name, lane.plain);
  const auto plain = MedianTiming(lane.plain);
  const auto traced = MedianTiming(lane.traced);
  const auto add = [&](const std::string& suffix, const Timing& timing) {
    outcome.Add(outcome.named, name + "_s" + suffix, timing.wall_s, "s");
    outcome.Add(outcome.named, name + "_cpu_s" + suffix, timing.cpu_s, "s");
  };
  if (plain) add("", *plain);
  if (traced) add(".traced", *traced);
  if (plain && traced) {
    add(".overhead", {traced->wall_s - plain->wall_s, traced->cpu_s - plain->cpu_s});
  }
  return plain.value_or(Timing{});
}

void AddSetup(Outcome& outcome, const Timing& setup) {
  outcome.Add(outcome.named, "setup_wall_s", setup.wall_s, "s");
  outcome.Add(outcome.named, "setup_cpu_s", setup.cpu_s, "s");
}

namespace {

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

// {"lane": [[wall_s, cpu_s], ...], ...}
std::string SamplesJson(
    const std::vector<std::pair<std::string, std::vector<Timing>>>& samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + samples[i].first + "\": [";
    const auto& timings = samples[i].second;
    for (std::size_t j = 0; j < timings.size(); ++j) {
      out += (j == 0 ? "[" : ", [") + Number(timings[j].wall_s) + ", " +
             Number(timings[j].cpu_s) + "]";
    }
    out += "]";
  }
  return out + "}";
}

// Median over root spans (set-up repetitions, passes, trials) of the self
// time a layer's spans accumulate inside each root; 0 when the layer never
// ran.
double MedianRootSelf(const std::vector<Span>& spans, const std::string& layer) {
  const auto self = SelfTimes(spans);
  std::vector<int> root(spans.size());
  std::map<int, double> per_root;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    root[i] = parent < 0 ? static_cast<int>(i) : root[static_cast<std::size_t>(parent)];
    if (spans[i].name.compare(0, layer.size() + 1, layer + ".") == 0) {
      per_root[root[i]] += self[i];
    }
  }
  std::vector<double> values;
  for (const auto& [index, seconds] : per_root) values.push_back(seconds);
  return Median(values).value_or(0.0);
}

void PrintTable(const std::string& title,
                const std::map<std::string, SpanTotals>& totals) {
  std::fprintf(stderr, "%s\n  %-28s %10s %10s %7s\n", title.c_str(), "span",
               "total_s", "self_s", "calls");
  for (const auto& [name, entry] : totals) {
    std::fprintf(stderr, "  %-28s %10.4f %10.4f %7d\n", name.c_str(),
                 entry.total_s, entry.self_s, entry.calls);
  }
}

int Usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=NAME [--seed=N] "
               "[--seconds=S] [--trace=0|1] --work-dir=DIR --results-dir=DIR\n",
               message.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string results_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* prefix) -> std::optional<std::string> {
      const std::string p = prefix;
      if (arg.compare(0, p.size(), p) != 0) return std::nullopt;
      return arg.substr(p.size());
    };
    if (auto v = value("--workload=")) {
      config.workload = *v;
    } else if (auto v = value("--seed=")) {
      config.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = value("--seconds=")) {
      config.seconds = std::atof(v->c_str());
    } else if (auto v = value("--trace=")) {
      config.trace = *v == "1";
    } else if (auto v = value("--work-dir=")) {
      config.work_dir = *v;
    } else if (auto v = value("--results-dir=")) {
      results_dir = *v;
    } else {
      return Usage("unknown argument " + arg);
    }
  }
  if (config.work_dir.empty() || results_dir.empty()) {
    return Usage("--work-dir and --results-dir are required");
  }
  if (config.seconds <= 0.0) return Usage("--seconds must be positive");
  std::filesystem::remove_all(config.work_dir);
  std::filesystem::create_directories(config.work_dir);
  std::filesystem::create_directories(results_dir);

  const std::string fingerprint = FingerprintJson(config.work_dir);
  const CpuStat cpu_start = ReadCpuStat();
  const double reference_start = ReferenceLoopSeconds();
  Tracer tracer(config.trace);
  Outcome outcome;
  if (config.workload == "analyze_dirty") {
    outcome = RunAnalyzeWorkload(config, tracer);
  } else if (config.workload == "serve_live") {
    outcome = RunServeWorkload(config, tracer);
  } else if (config.workload == "campaign_grid") {
    outcome = RunCampaignWorkload(config, tracer);
  } else {
    return Usage("unknown workload '" + config.workload + "'");
  }
  const double reference_end = ReferenceLoopSeconds();
  const double steal_share = StealShare(cpu_start, ReadCpuStat());
  std::filesystem::remove_all(config.work_dir);

  const bool correct = outcome.failures.empty() && outcome.attempted > 0;
  std::vector<Metric> metrics = outcome.listed;
  const auto& spans = tracer.Spans();
  if (config.trace) {
    metrics.push_back({"faultsim.self_s", MedianRootSelf(spans, "faultsim"), "s"});
    metrics.push_back({"core.self_s", MedianRootSelf(spans, "core"), "s"});
    metrics.push_back({"trace.spans", static_cast<double>(spans.size()), "count"});
    metrics.push_back({"host.reference_s", (reference_start + reference_end) / 2.0, "s"});
    // Every span name's median duration per call, unless the workload
    // already reported that name its own way.
    std::map<std::string, std::vector<double>> durations;
    for (const auto& span : spans) {
      if (span.name.compare(0, 6, "bench.") == 0) continue;
      durations[span.name].push_back(span.end_s - span.start_s);
    }
    for (const auto& [name, values] : durations) {
      bool known = false;
      for (const auto& m : outcome.named) {
        known = known || m.name.compare(0, name.size() + 1, name + "_") == 0;
      }
      if (!known) outcome.Add(outcome.named, name + "_s", *Median(values), "s");
    }
  } else {
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  }

  // Human-readable report on stderr.
  std::fprintf(stderr, "perfbench %s seed=%llu seconds=%g trace=%d\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed), config.seconds,
               config.trace ? 1 : 0);
  std::fprintf(stderr, "host: %s reference_s start=%.4f end=%.4f steal_share=%.4f\n",
               fingerprint.c_str(), reference_start, reference_end, steal_share);
  for (const auto& failure : outcome.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  for (const auto& m : outcome.named) {
    std::fprintf(stderr, "  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (config.trace) {
    PrintTable("per-layer self time", TotalsByLayer(spans));
    PrintTable("per-span self time", TotalsByName(spans));
  }

  // Results file (and the Chrome trace) for later inspection.
  const std::string stem = results_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + "-trace" +
                           (config.trace ? "1" : "0");
  {
    std::ofstream out(stem + ".json");
    out << "{\"workload\": \"" << config.workload << "\", \"seed\": " << config.seed
        << ", \"seconds\": " << Number(config.seconds)
        << ", \"host\": " << fingerprint
        << ", \"host_reference_s\": [" << Number(reference_start) << ", "
        << Number(reference_end) << "], \"host_steal_share\": " << Number(steal_share)
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"failures\": " << outcome.failures.size()
        << ", \"metrics\": " << MetricsJson(metrics)
        << ", \"named\": " << MetricsJson(outcome.named)
        << ", \"samples\": " << SamplesJson(outcome.samples) << "}\n";
  }
  if (config.trace) std::ofstream(stem + ".trace.json") << ChromeTraceJson(spans);

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed
            << ", \"metrics\": " << MetricsJson(correct ? metrics : std::vector<Metric>{})
            << "}" << std::endl;
  return correct ? 0 : 1;
}
