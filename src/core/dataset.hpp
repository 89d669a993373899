// Dataset directory I/O in the §2.4 release layout: one TSV per telemetry
// stream.  The same reader works on the public Astra release (after column
// name mapping) and on simulator output, which is the point — the analysis
// side of the toolkit never knows which one it got.
#pragma once

#include <string>

#include "core/data_quality.hpp"
#include "faultsim/fleet.hpp"
#include "logs/log_file.hpp"
#include "replace/replacement_sim.hpp"
#include "sensors/environment.hpp"

namespace astra::core {

struct DatasetPaths {
  std::string memory_errors;  // memory_errors.tsv
  std::string het_events;     // het_events.tsv
  std::string sensors;        // sensor_readings.tsv
  std::string inventory;      // inventory_scans.tsv

  [[nodiscard]] static DatasetPaths InDirectory(const std::string& dir);
};

struct SensorDumpOptions {
  // Sensor sampling stride in minutes (1 = the real cadence; larger values
  // shrink the file for examples and tests).
  int stride_minutes = 60;
  // Only the first `node_limit` nodes are dumped (<=0 = all simulated).
  int node_limit = 0;
};

// Write a campaign's failure telemetry (memory errors + HET stream).
[[nodiscard]] bool WriteFailureData(const DatasetPaths& paths,
                                    const faultsim::CampaignResult& result);

// Write environmental telemetry sampled from the procedural sensor field.
[[nodiscard]] bool WriteSensorData(const DatasetPaths& paths,
                                   const sensors::Environment& environment,
                                   TimeWindow window, int node_count,
                                   const SensorDumpOptions& options = {});

// Write daily inventory snapshots for the tracking window (one snapshot per
// `stride_days`).
[[nodiscard]] bool WriteInventoryData(const DatasetPaths& paths,
                                      const replace::ReplacementSimulator& simulator,
                                      const replace::ReplacementCampaign& campaign,
                                      int stride_days = 1);

// --- Hardened dataset ingest --------------------------------------------------

enum class DatasetStatus {
  kOk,              // ingested (possibly with repairs; see quality)
  kMissingPrimary,  // memory_errors.tsv absent or unreadable — nothing to analyse
  kRejected,        // strict policy: malformed budget exceeded
};

// Failure telemetry ingested under an IngestPolicy, with full accounting.
// Lenient mode survives every corruption mode the injector produces: damaged
// lines are quarantined, missing auxiliary streams are flagged, and the
// merged DataQuality summary feeds the analyses' graceful degradation.
struct DatasetIngest {
  DatasetStatus status = DatasetStatus::kOk;
  std::vector<logs::MemoryErrorRecord> memory_errors;
  std::vector<logs::HetRecord> het_events;
  logs::IngestReport memory_report;
  logs::IngestReport het_report;
  bool het_missing = false;  // HET stream absent: DUE analysis degrades
  DataQuality quality;       // merged across ingested streams
};

// `threads` selects the sharded mmap ingest path: 0 = hardware concurrency,
// 1 = the serial reader.  Records, reports, and strict-mode verdicts are
// byte-identical at every thread count.
[[nodiscard]] DatasetIngest IngestFailureData(const DatasetPaths& paths,
                                              const logs::IngestPolicy& policy,
                                              unsigned threads = 1);

}  // namespace astra::core
