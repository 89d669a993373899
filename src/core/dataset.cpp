#include "core/dataset.hpp"

#include <algorithm>

#include "logs/parallel_ingest.hpp"

namespace astra::core {

DatasetPaths DatasetPaths::InDirectory(const std::string& dir) {
  DatasetPaths paths;
  paths.memory_errors = dir + "/memory_errors.tsv";
  paths.het_events = dir + "/het_events.tsv";
  paths.sensors = dir + "/sensor_readings.tsv";
  paths.inventory = dir + "/inventory_scans.tsv";
  return paths;
}

bool WriteFailureData(const DatasetPaths& paths, const faultsim::CampaignResult& result) {
  logs::LogFileWriter<logs::MemoryErrorRecord> errors(paths.memory_errors);
  if (!errors.Ok()) return false;
  for (const auto& record : result.memory_errors) errors.Append(record);
  if (!errors.Finish()) return false;

  logs::LogFileWriter<logs::HetRecord> het(paths.het_events);
  if (!het.Ok()) return false;
  for (const auto& record : result.het_records) het.Append(record);
  return het.Finish();
}

bool WriteSensorData(const DatasetPaths& paths, const sensors::Environment& environment,
                     TimeWindow window, int node_count, const SensorDumpOptions& options) {
  logs::LogFileWriter<logs::SensorRecord> writer(paths.sensors);
  if (!writer.Ok()) return false;

  const int nodes = options.node_limit > 0 ? std::min(options.node_limit, node_count)
                                           : node_count;
  const std::int64_t stride_s =
      std::max<std::int64_t>(1, options.stride_minutes) * SimTime::kSecondsPerMinute;
  for (std::int64_t t = window.begin.Seconds(); t < window.end.Seconds(); t += stride_s) {
    const SimTime when(t);
    for (NodeId node = 0; node < nodes; ++node) {
      for (int s = 0; s < kSensorsPerNode; ++s) {
        const auto kind = static_cast<SensorKind>(s);
        const sensors::SensorReading reading =
            environment.Sensors().Sample(node, kind, when);
        logs::SensorRecord record;
        record.timestamp = when;
        record.node = node;
        record.sensor = kind;
        if (reading.status == sensors::SampleStatus::kMissing) {
          record.valid = false;
        } else {
          record.valid = true;
          record.value = reading.value;  // invalid glitch values written as-is
        }
        writer.Append(record);
      }
    }
  }
  return writer.Finish();
}

bool WriteInventoryData(const DatasetPaths& paths,
                        const replace::ReplacementSimulator& simulator,
                        const replace::ReplacementCampaign& campaign, int stride_days) {
  logs::LogFileWriter<logs::InventoryRecord> writer(paths.inventory);
  if (!writer.Ok()) return false;
  const TimeWindow tracking = simulator.Config().tracking;
  const auto days = static_cast<int>(tracking.DurationDays());
  for (int d = 0; d <= days; d += std::max(1, stride_days)) {
    const SimTime date = tracking.begin.AddDays(d);
    for (const auto& record : simulator.SnapshotAt(campaign, date)) {
      writer.Append(record);
    }
  }
  return writer.Finish();
}

DatasetIngest IngestFailureData(const DatasetPaths& paths,
                                const logs::IngestPolicy& policy, unsigned threads) {
  DatasetIngest ingest;

  const auto memory = logs::ParallelIngestAllRecords<logs::MemoryErrorRecord>(
      paths.memory_errors, policy, threads, &ingest.memory_report);
  if (!memory) {
    ingest.status = DatasetStatus::kMissingPrimary;
    return ingest;
  }
  ingest.memory_errors = std::move(*memory);
  ingest.quality = DataQuality::FromReport(ingest.memory_report);
  if (!ingest.memory_report.AcceptedBy(policy)) {
    ingest.status = DatasetStatus::kRejected;
    return ingest;
  }

  // Auxiliary streams degrade instead of failing the whole ingest: a missing
  // HET file is exactly the "whole missing files" damage class, and lenient
  // mode continues with what survives.
  const auto het = logs::ParallelIngestAllRecords<logs::HetRecord>(
      paths.het_events, policy, threads, &ingest.het_report);
  if (!het) {
    ingest.het_missing = true;
    ingest.quality.stream_missing = true;
  } else {
    ingest.het_events = std::move(*het);
    ingest.quality.Merge(DataQuality::FromReport(ingest.het_report));
    if (!ingest.het_report.AcceptedBy(policy)) {
      ingest.status = DatasetStatus::kRejected;
      return ingest;
    }
  }
  return ingest;
}

}  // namespace astra::core
