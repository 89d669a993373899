// astra_serve — fleet-of-fleets monitoring daemon.
//
//   astra_serve ROOT [--racks=N] [--nodes-per-rack=N] [--topology=FILE]
//               [--port=N] [--port-file=FILE] [--checkpoint-dir=DIR]
//               [--checkpoint-every=N] [--webhook=URL] [--poll-ms=MS]
//               [--merge-ms=MS] [--pollers=N] [--http-workers=N]
//               [--idle-exit-ms=MS] [--quiesce-ms=MS]
//               [--strict|--lenient] [--max-malformed=F]
//               [--alert-window=SEC] [--alert-fleet-ces=N] [--alert-node-ces=N]
//               [--retry-max=N] [--retry-base-ms=MS] [--drain]
//       Tail one dataset directory per node under ROOT (node-0000/,
//       node-0001/, ... — the layout serve_fleet writes), merge node -> rack
//       -> fleet, and serve live reports over HTTP on 127.0.0.1:
//         /healthz /fleet/report /rack/{id}/report /node/{id}/report
//         /alerts /stats
//       A served report is byte-identical to `astra-mrt analyze` over the
//       concatenation of the same delivered records.  --checkpoint-dir makes
//       the whole tree crash-safe: every node in one file, DIR/manifest.ckp,
//       restored on restart.  --webhook POSTs each published alert as JSON.
//       SIGTERM/SIGINT stop the daemon cleanly (final checkpoint included).
//       With --drain the daemon instead consumes everything currently on
//       disk, prints the fleet report to stdout, and exits — the one-shot
//       batch-parity mode tests and scripts use.
//
//   astra_serve get URL
//       Minimal HTTP GET helper (no curl needed in tests): prints the
//       response body to stdout, exits 0 on HTTP 200.
//
// The flags are declared once, in ServeSpec's table; the usage text
// (`astra_serve help`) is generated from it.
//
// Exit codes: 0 success, 1 bad usage (a malformed topology file too), 2 I/O
//             or serving failure (an unreadable topology file, unreadable
//             primary logs in --drain mode, rejected checkpoint manifest,
//             bind failure, failed GET).
#include <csignal>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "serve/daemon.hpp"
#include "serve/http.hpp"
#include "serve/topology.hpp"
#include "util/file_io.hpp"
#include "util/flags.hpp"
#include "util/io_faults.hpp"

namespace astra::serve {
namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

struct ServeCliOptions {
  std::string root;
  std::string topology_file;
  int racks = 0;           // 0 = from file or default
  int nodes_per_rack = 0;  // 0 = from file or default
  int port = 0;            // 0 = kernel-assigned
  std::string port_file;
  std::string checkpoint_dir;
  int checkpoint_every = 5;
  std::string webhook;
  int poll_ms = 200;
  int merge_ms = 1000;
  int pollers = 4;
  int idle_exit_ms = 0;  // 0 = serve until a signal
  int quiesce_ms = 0;    // 0 = tail forever; >0 = drain after that much idle
  int http_workers = 4;
  std::int64_t alert_window_seconds = 3600;
  std::uint64_t alert_fleet_ces = 0;
  std::uint64_t alert_node_ces = 0;
  int retry_max = 10;
  std::int64_t retry_base_ms = 50;
  bool strict = false;
  logs::IngestPolicy policy;
  bool drain = false;
};

// One bit per command, in ServeSpec's order.
constexpr flags::Commands kServe = 1, kGet = 2;

// The command-line surface: each flag, the field it sets and its accepted
// range.  Every flag belongs to the daemon; `get` takes none.
flags::Spec ServeSpec(ServeCliOptions& o) {
  flags::Spec spec{
      .program = "astra_serve",
      .summary = "astra_serve — fleet-of-fleets memory reliability monitor",
      .commands = {{"", "ROOT"}, {"get", "URL"}},
      .epilogue =
          "ROOT holds one dataset directory per node (node-0000/, node-0001/, ...).\n"
          "Endpoints: /healthz /fleet/report /rack/{id}/report /node/{id}/report\n"
          "           /alerts /stats\n"};
  spec.flags = {
      {"--racks", "N", &o.racks, {1, 100000}, kServe},
      {"--nodes-per-rack", "N", &o.nodes_per_rack, {1, 100000}, kServe},
      {"--topology", "FILE", &o.topology_file, kServe},
      {"--port", "N", &o.port, {0, 65535}, kServe},
      {"--port-file", "FILE", &o.port_file, kServe},
      {"--checkpoint-dir", "DIR", &o.checkpoint_dir, kServe},
      {"--checkpoint-every", "N", &o.checkpoint_every, {1}, kServe},
      {"--webhook", "URL", &o.webhook, kServe},
      {"--poll-ms", "MS", &o.poll_ms, {1}, kServe},
      {"--merge-ms", "MS", &o.merge_ms, {1}, kServe},
      {"--pollers", "N", &o.pollers, {1, 256}, kServe},
      {"--http-workers", "N", &o.http_workers, {1, 64}, kServe},
      {"--idle-exit-ms", "MS", &o.idle_exit_ms, {0}, kServe},
      {"--quiesce-ms", "MS", &o.quiesce_ms, {0}, kServe},
      {"--strict", &o.strict, true, kServe},
      {"--lenient", &o.strict, false, kServe},
      {"--max-malformed", "F", &o.policy.max_malformed_fraction, {0, 1}, kServe},
      {"--alert-window", "SEC", &o.alert_window_seconds, {1}, kServe},
      {"--alert-fleet-ces", "N", &o.alert_fleet_ces, {1}, kServe},
      {"--alert-node-ces", "N", &o.alert_node_ces, {1}, kServe},
      {"--retry-max", "N", &o.retry_max, {1, 100}, kServe},
      {"--retry-base-ms", "MS", &o.retry_base_ms, {0}, kServe},
      {"--drain", &o.drain, true, kServe},
  };
  return spec;
}

// Resolve the serving topology: file first, then explicit flag overrides.
// 0 when resolved, else the exit code: 2 for a file that cannot be read, 1
// for a malformed file or an invalid result.
int ResolveTopology(const ServeCliOptions& options, ServeTopology& topology) {
  if (!options.topology_file.empty()) {
    const auto bytes = ReadFileBytes(options.topology_file);
    if (!bytes) {
      std::cerr << "astra_serve: cannot read topology file "
                << options.topology_file << '\n';
      return 2;
    }
    const auto parsed = ParseTopologyText(*bytes);
    if (!parsed) {
      std::cerr << "astra_serve: cannot parse topology file "
                << options.topology_file << '\n';
      return 1;
    }
    topology = *parsed;
  }
  if (options.racks > 0) topology.racks = options.racks;
  if (options.nodes_per_rack > 0) topology.nodes_per_rack = options.nodes_per_rack;
  if (!topology.Valid()) {
    std::cerr << "astra_serve: invalid topology (" << topology.racks << " x "
              << topology.nodes_per_rack << ")\n";
    return 1;
  }
  return 0;
}

ServeOptions BuildServeOptions(const ServeCliOptions& options,
                               const ServeTopology& topology) {
  ServeOptions serve;
  serve.root = options.root;
  serve.topology = topology;
  serve.monitor.policy = options.policy;
  serve.monitor.alerts.window_seconds = options.alert_window_seconds;
  serve.monitor.alerts.fleet_ce_threshold = options.alert_fleet_ces;
  serve.monitor.alerts.node_ce_threshold = options.alert_node_ces;
  serve.poll_ms = options.poll_ms;
  serve.merge_ms = options.merge_ms;
  serve.pollers = options.pollers;
  serve.checkpoint_dir = options.checkpoint_dir;
  serve.checkpoint_every_merges = options.checkpoint_every;
  serve.quiesce_ms = options.quiesce_ms;
  serve.retry.max_attempts = options.retry_max;
  serve.retry.base_delay_ms = options.retry_base_ms;
  serve.retry_sleep = ThreadSleeper();
  // Per-poll transient-fault absorption: a short in-poll budget; the poll
  // cadence itself provides the long-horizon retry.
  serve.monitor.io_retry.max_attempts = 3;
  return serve;
}

bool InstallWebhook(const ServeCliOptions& options, ServeDaemon& daemon) {
  if (options.webhook.empty()) return true;
  const auto url = ParseHttpUrl(options.webhook);
  if (!url) {
    std::cerr << "astra_serve: cannot parse webhook URL " << options.webhook
              << " (expected http://host:port/path)\n";
    return false;
  }
  RetryPolicy retry;
  retry.max_attempts = options.retry_max;
  retry.base_delay_ms = options.retry_base_ms;
  daemon.Hub().SetWebhook(
      [url = *url](const std::string& body) {
        const auto result = HttpFetch(url.host, url.port, "POST", url.path, body);
        return result && result->status >= 200 && result->status < 300;
      },
      retry, ThreadSleeper());
  return true;
}

int CmdGet(const std::string& url_text) {
  const auto url = ParseHttpUrl(url_text);
  if (!url) {
    std::cerr << "astra_serve get: cannot parse URL " << url_text << '\n';
    return 1;
  }
  const auto result = HttpFetch(url->host, url->port, "GET", url->path);
  if (!result) {
    std::cerr << "astra_serve get: request to " << url_text << " failed\n";
    return 2;
  }
  std::cout << result->body;
  return result->status == 200 ? 0 : 2;
}

int CmdServe(const ServeCliOptions& options) {
  ServeTopology topology;
  if (const int rc = ResolveTopology(options, topology); rc != 0) return rc;

  ServeDaemon daemon(BuildServeOptions(options, topology));
  std::string error;
  if (!daemon.Init(&error)) {
    std::cerr << "astra_serve: " << error << '\n';
    return 2;
  }
  if (!InstallWebhook(options, daemon)) return 1;

  if (options.drain) {
    // Save before Drain closes the books, so a resumed --drain still reads
    // every line appended since.
    daemon.PollAll();
    if (!daemon.SaveCheckpoint()) {
      std::cerr << "astra_serve: final checkpoint failed\n";
      return 2;
    }
    const std::size_t missing = daemon.Drain();
    if (missing > 0) {
      std::cerr << "astra_serve: " << missing
                << " node(s) have no readable memory_errors log\n";
      return 2;
    }
    std::cout << daemon.FleetReport();
    return 0;
  }

  HttpServer server;
  if (!server.Start(MakeDaemonHandler(daemon),
                    static_cast<std::uint16_t>(options.port),
                    options.http_workers)) {
    std::cerr << "astra_serve: cannot bind 127.0.0.1:" << options.port << '\n';
    return 2;
  }
  if (!options.port_file.empty()) {
    if (!io::Current().WriteFile(options.port_file,
                                 std::to_string(server.Port()) + "\n")) {
      std::cerr << "astra_serve: cannot write port file " << options.port_file
                << '\n';
      server.Stop();
      return 2;
    }
  }
  if (!daemon.StartServing()) {
    std::cerr << "astra_serve: failed to start poller threads\n";
    server.Stop();
    return 2;
  }
  std::cerr << "astra_serve: monitoring " << topology.NodeCount()
            << " node streams (" << topology.racks << " racks x "
            << topology.nodes_per_rack << " nodes) on 127.0.0.1:"
            << server.Port() << '\n';

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  // Serve until a stop signal — or, with --idle-exit-ms, until the data
  // generation stops moving for that long (CI smoke and tests use this as a
  // belt-and-braces bound; the signal path is the normal exit).
  const auto idle_limit = std::chrono::milliseconds(options.idle_exit_ms);
  auto last_activity = std::chrono::steady_clock::now();
  std::uint64_t last_generation = daemon.DataGeneration();
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (options.idle_exit_ms > 0) {
      const auto now = std::chrono::steady_clock::now();
      const std::uint64_t generation = daemon.DataGeneration();
      if (generation != last_generation) {
        last_generation = generation;
        last_activity = now;
      } else if (daemon.Ready() && now - last_activity >= idle_limit) {
        break;
      }
    }
  }

  daemon.StopServing();
  server.Stop();
  if (!options.checkpoint_dir.empty() && !daemon.SaveCheckpoint()) {
    std::cerr << "astra_serve: final checkpoint failed\n";
    return 2;
  }
  std::cerr << "astra_serve: stopped after " << server.RequestsServed()
            << " request(s)\n";
  return 0;
}

int Main(int argc, char** argv) {
  ServeCliOptions options;
  const flags::Spec spec = ServeSpec(options);
  const flags::Parsed parsed = flags::Parse(spec, argc, argv);
  if (const auto code = flags::Reply(spec, parsed)) return *code;
  if (parsed.command == kGet) {
    if (parsed.positionals.empty()) {
      std::cerr << "astra_serve get: URL required\n";
      return 1;
    }
    return CmdGet(parsed.positionals.front());
  }
  if (parsed.positionals.empty()) {
    std::cerr << "astra_serve: serve root directory required\n";
    flags::PrintUsage(std::cout, spec);
    return 1;
  }
  options.root = parsed.positionals.front();
  if (options.strict) options.policy.mode = logs::IngestPolicy::Mode::kStrict;
  return CmdServe(options);
}

}  // namespace
}  // namespace astra::serve

int main(int argc, char** argv) { return astra::serve::Main(argc, argv); }
