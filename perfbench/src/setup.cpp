#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <iterator>

#include "bench.hpp"
#include "relabel.hpp"
#include "stats.hpp"

namespace perfbench {

astra::faultsim::CampaignResult SimulateCliCampaign(Tracer& tracer) {
  astra::faultsim::CampaignConfig config;
  config.SeedFrom(kCliDefaultSeed);
  config.node_count = kCampaignNodes;
  ScopedSpan span(tracer, "faultsim.simulate");
  return astra::faultsim::FleetSimulator(config).Run(0);
}

astra::faultsim::CampaignResult RelabeledCliCampaign(std::uint64_t seed,
                                                     Tracer& tracer) {
  astra::faultsim::CampaignResult result = SimulateCliCampaign(tracer);
  std::vector<std::size_t> per_node(kCampaignNodes, 0);
  for (const auto& record : result.memory_errors) ++per_node[record.node];
  const auto label = SizeClassRelabeling(per_node, seed);
  const auto relabel = [&label](auto& record) {
    record.node = static_cast<astra::NodeId>(label[static_cast<std::size_t>(record.node)]);
  };
  for (auto& record : result.memory_errors) relabel(record);
  for (auto& record : result.het_records) relabel(record);
  return result;
}

std::optional<Timing> MedianTiming(const std::vector<Timing>& timings) {
  if (timings.empty()) return std::nullopt;
  std::vector<double> wall;
  std::vector<double> cpu;
  for (const Timing& timing : timings) {
    wall.push_back(timing.wall_s);
    cpu.push_back(timing.cpu_s);
  }
  return Timing{*Median(wall), *Median(cpu)};
}

std::optional<Timing> RepeatSetup(const RunConfig& config, Tracer& tracer,
                                  const std::function<bool()>& generate) {
  std::vector<Timing> timings;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ScopedSpan span(tracer, "bench.setup");
    bool ok = false;
    if (config.trace) {
      timings.push_back(Timed([&] { ok = generate(); }));
    } else {
      const auto start = std::chrono::steady_clock::now();
      const pid_t child = fork();
      if (child < 0) return std::nullopt;
      if (child == 0) _exit(generate() ? 0 : 1);
      int status = 0;
      rusage usage{};
      ok = wait4(child, &status, 0, &usage) == child && WIFEXITED(status) &&
           WEXITSTATUS(status) == 0;
      const auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
      };
      timings.push_back(
          {SecondsSince(start), seconds(usage.ru_utime) + seconds(usage.ru_stime)});
    }
    if (!ok) return std::nullopt;
  }
  return MedianTiming(timings);
}

bool WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  return static_cast<bool>(out << text);
}

std::optional<std::string> ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

}  // namespace perfbench
