#include "common/bench_common.hpp"

#include "util/strings.hpp"

namespace astra::bench {

BenchOptions ParseArgs(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (StartsWith(arg, "--nodes=")) {
      if (const auto v = ParseInt64(arg.substr(8)); v && *v > 0 && *v <= kNumNodes) {
        options.nodes = static_cast<int>(*v);
      }
    } else if (StartsWith(arg, "--seed=")) {
      if (const auto v = ParseUint64(arg.substr(7))) options.seed = *v;
    } else if (arg == "--quick") {
      options.quick = true;
      if (options.nodes == kNumNodes) options.nodes = 400;
    } else if (arg == "--help") {
      std::cout << "usage: bench [--nodes=N] [--seed=S] [--quick]\n";
    }
  }
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
