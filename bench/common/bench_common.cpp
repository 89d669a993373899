#include "common/bench_common.hpp"

#include <cstdlib>
#include <filesystem>

#include "util/flags.hpp"

namespace astra::bench {

BenchOptions ParseArgs(int argc, char** argv) {
  BenchOptions options;
  const flags::Spec spec{.program = std::filesystem::path(argv[0]).filename().string(),
                         .flags = {{"--nodes", "N", &options.nodes, {1, kNumNodes}},
                                   {"--seed", "S", &options.seed},
                                   {"--quick", &options.quick}}};
  const flags::Parsed parsed = flags::Parse(spec, argc, argv);
  if (const auto code = flags::Reply(spec, parsed)) std::exit(*code);
  if (options.quick && !parsed.Given("--nodes")) options.nodes = 400;
  return options;
}

CampaignBundle RunCampaign(const BenchOptions& options) {
  CampaignBundle bundle;
  bundle.config.SeedFrom(options.seed);
  bundle.config.node_count = options.nodes;
  bundle.result = faultsim::FleetSimulator(bundle.config).Run();
  bundle.coalesced = core::FaultCoalescer::Coalesce(bundle.result.memory_errors);
  return bundle;
}

void PrintBanner(const std::string& experiment, const std::string& paper_claim) {
  std::cout << Rule() << '\n'
            << "REPRODUCTION  " << experiment << '\n'
            << "paper claim   " << paper_claim << '\n'
            << Rule() << '\n';
}

void PrintComparison(const std::string& key, const std::string& measured,
                     const std::string& paper) {
  std::cout << "  " << key << ": measured=" << measured << "  paper=" << paper << '\n';
}

void PrintFooter() { std::cout << Rule() << "\n\n"; }

}  // namespace astra::bench
