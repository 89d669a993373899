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
// Exit codes: 0 success, 1 bad usage, 2 I/O or serving failure (unreadable
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
#include "util/io_faults.hpp"
#include "util/strings.hpp"

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
  logs::IngestPolicy policy;
  bool drain = false;
  std::string bad_flag;  // first flag whose value failed validation
};

ServeCliOptions ParseServeFlags(int argc, char** argv, int first) {
  ServeCliOptions options;
  const auto bad = [&options](const std::string& message) {
    if (options.bad_flag.empty()) options.bad_flag = message;
  };
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (StartsWith(arg, "--racks=")) {
      if (const auto v = ParseInt64(arg.substr(8)); v && *v > 0 && *v <= 100000) {
        options.racks = static_cast<int>(*v);
      } else {
        bad("--racks expects a positive rack count");
      }
    } else if (StartsWith(arg, "--nodes-per-rack=")) {
      if (const auto v = ParseInt64(arg.substr(17)); v && *v > 0 && *v <= 100000) {
        options.nodes_per_rack = static_cast<int>(*v);
      } else {
        bad("--nodes-per-rack expects a positive node count");
      }
    } else if (StartsWith(arg, "--topology=")) {
      options.topology_file = std::string(arg.substr(11));
    } else if (StartsWith(arg, "--port=")) {
      if (const auto v = ParseInt64(arg.substr(7)); v && *v >= 0 && *v <= 65535) {
        options.port = static_cast<int>(*v);
      } else {
        bad("--port expects a port in [0, 65535]");
      }
    } else if (StartsWith(arg, "--port-file=")) {
      options.port_file = std::string(arg.substr(12));
    } else if (StartsWith(arg, "--checkpoint-dir=")) {
      options.checkpoint_dir = std::string(arg.substr(17));
    } else if (StartsWith(arg, "--checkpoint-every=")) {
      if (const auto v = ParseInt64(arg.substr(19)); v && *v > 0) {
        options.checkpoint_every = static_cast<int>(*v);
      } else {
        bad("--checkpoint-every expects a positive merge-cycle count");
      }
    } else if (StartsWith(arg, "--webhook=")) {
      options.webhook = std::string(arg.substr(10));
    } else if (StartsWith(arg, "--poll-ms=")) {
      if (const auto v = ParseInt64(arg.substr(10)); v && *v > 0) {
        options.poll_ms = static_cast<int>(*v);
      } else {
        bad("--poll-ms expects a positive millisecond count");
      }
    } else if (StartsWith(arg, "--merge-ms=")) {
      if (const auto v = ParseInt64(arg.substr(11)); v && *v > 0) {
        options.merge_ms = static_cast<int>(*v);
      } else {
        bad("--merge-ms expects a positive millisecond count");
      }
    } else if (StartsWith(arg, "--pollers=")) {
      if (const auto v = ParseInt64(arg.substr(10)); v && *v > 0 && *v <= 256) {
        options.pollers = static_cast<int>(*v);
      } else {
        bad("--pollers expects a thread count in [1, 256]");
      }
    } else if (StartsWith(arg, "--http-workers=")) {
      if (const auto v = ParseInt64(arg.substr(15)); v && *v > 0 && *v <= 64) {
        options.http_workers = static_cast<int>(*v);
      } else {
        bad("--http-workers expects a thread count in [1, 64]");
      }
    } else if (StartsWith(arg, "--idle-exit-ms=")) {
      if (const auto v = ParseInt64(arg.substr(15)); v && *v >= 0) {
        options.idle_exit_ms = static_cast<int>(*v);
      } else {
        bad("--idle-exit-ms expects a non-negative millisecond count");
      }
    } else if (StartsWith(arg, "--quiesce-ms=")) {
      if (const auto v = ParseInt64(arg.substr(13)); v && *v >= 0) {
        options.quiesce_ms = static_cast<int>(*v);
      } else {
        bad("--quiesce-ms expects a non-negative millisecond count");
      }
    } else if (arg == "--strict") {
      options.policy.mode = logs::IngestPolicy::Mode::kStrict;
    } else if (arg == "--lenient") {
      options.policy.mode = logs::IngestPolicy::Mode::kLenient;
    } else if (StartsWith(arg, "--max-malformed=")) {
      if (const auto v = ParseDouble(arg.substr(16)); v && *v >= 0.0 && *v <= 1.0) {
        options.policy.max_malformed_fraction = *v;
      } else {
        bad("--max-malformed expects a fraction in [0, 1]");
      }
    } else if (StartsWith(arg, "--alert-window=")) {
      if (const auto v = ParseInt64(arg.substr(15)); v && *v > 0) {
        options.alert_window_seconds = *v;
      } else {
        bad("--alert-window expects a positive second count");
      }
    } else if (StartsWith(arg, "--alert-fleet-ces=")) {
      if (const auto v = ParseUint64(arg.substr(18)); v && *v > 0) {
        options.alert_fleet_ces = *v;
      } else {
        bad("--alert-fleet-ces expects a positive CE count");
      }
    } else if (StartsWith(arg, "--alert-node-ces=")) {
      if (const auto v = ParseUint64(arg.substr(17)); v && *v > 0) {
        options.alert_node_ces = *v;
      } else {
        bad("--alert-node-ces expects a positive CE count");
      }
    } else if (StartsWith(arg, "--retry-max=")) {
      if (const auto v = ParseInt64(arg.substr(12)); v && *v > 0 && *v <= 100) {
        options.retry_max = static_cast<int>(*v);
      } else {
        bad("--retry-max expects an attempt count in [1, 100]");
      }
    } else if (StartsWith(arg, "--retry-base-ms=")) {
      if (const auto v = ParseInt64(arg.substr(16)); v && *v >= 0) {
        options.retry_base_ms = *v;
      } else {
        bad("--retry-base-ms expects a non-negative millisecond count");
      }
    } else if (arg == "--drain") {
      options.drain = true;
    } else if (StartsWith(arg, "--")) {
      bad("unknown flag: " + std::string(arg));
    } else if (options.root.empty()) {
      options.root = std::string(arg);
    }
  }
  return options;
}

void PrintUsage() {
  std::cout <<
      "astra_serve — fleet-of-fleets memory reliability monitor\n"
      "\n"
      "usage:\n"
      "  astra_serve ROOT [--racks=N] [--nodes-per-rack=N] [--topology=FILE]\n"
      "              [--port=N] [--port-file=FILE] [--checkpoint-dir=DIR]\n"
      "              [--checkpoint-every=N] [--webhook=URL] [--poll-ms=MS]\n"
      "              [--merge-ms=MS] [--pollers=N] [--http-workers=N]\n"
      "              [--idle-exit-ms=MS] [--quiesce-ms=MS]\n"
      "              [--strict|--lenient] [--max-malformed=F]\n"
      "              [--alert-window=SEC] [--alert-fleet-ces=N] [--alert-node-ces=N]\n"
      "              [--retry-max=N] [--retry-base-ms=MS] [--drain]\n"
      "  astra_serve get URL\n"
      "\n"
      "ROOT holds one dataset directory per node (node-0000/, node-0001/, ...).\n"
      "Endpoints: /healthz /fleet/report /rack/{id}/report /node/{id}/report\n"
      "           /alerts /stats\n";
}

// Resolve the serving topology: file first, then explicit flag overrides.
bool ResolveTopology(const ServeCliOptions& options, ServeTopology& topology) {
  if (!options.topology_file.empty()) {
    const auto parsed = ParseTopologyFile(options.topology_file);
    if (!parsed) {
      std::cerr << "astra_serve: cannot parse topology file "
                << options.topology_file << '\n';
      return false;
    }
    topology = *parsed;
  }
  if (options.racks > 0) topology.racks = options.racks;
  if (options.nodes_per_rack > 0) topology.nodes_per_rack = options.nodes_per_rack;
  if (!topology.Valid()) {
    std::cerr << "astra_serve: invalid topology (" << topology.racks << " x "
              << topology.nodes_per_rack << ")\n";
    return false;
  }
  return true;
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
  serve.monitor.io_retry.base_delay_ms = options.retry_base_ms;
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
  if (!ResolveTopology(options, topology)) return 1;

  ServeDaemon daemon(BuildServeOptions(options, topology));
  std::string error;
  if (!daemon.Init(&error)) {
    std::cerr << "astra_serve: " << error << '\n';
    return 2;
  }
  if (!InstallWebhook(options, daemon)) return 1;

  if (options.drain) {
    const std::size_t missing = daemon.Drain();
    if (missing > 0) {
      std::cerr << "astra_serve: " << missing
                << " node(s) have no readable memory_errors log\n";
      return 2;
    }
    std::cout << daemon.FleetReport();
    if (!options.checkpoint_dir.empty() && !daemon.SaveCheckpoint()) {
      std::cerr << "astra_serve: final checkpoint failed\n";
      return 2;
    }
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
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  const std::string_view command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    PrintUsage();
    return 0;
  }
  if (command == "get") {
    if (argc < 3) {
      std::cerr << "astra_serve get: URL required\n";
      return 1;
    }
    return CmdGet(argv[2]);
  }

  const ServeCliOptions options = ParseServeFlags(argc, argv, 1);
  if (!options.bad_flag.empty()) {
    std::cerr << "astra_serve: " << options.bad_flag << '\n';
    return 1;
  }
  if (options.root.empty()) {
    std::cerr << "astra_serve: serve root directory required\n";
    PrintUsage();
    return 1;
  }
  return CmdServe(options);
}

}  // namespace
}  // namespace astra::serve

int main(int argc, char** argv) { return astra::serve::Main(argc, argv); }
