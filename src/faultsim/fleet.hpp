// FleetSimulator: runs a full measurement campaign over the machine and
// produces exactly the artifacts the paper's analyses consume — the syslog
// memory-error record stream, the HET record stream, and (for validation)
// the ground-truth fault population.
//
// Pipeline per node (deterministic, parallel across nodes):
//   faults <- FaultInjector                       (latent defects)
//   events <- expand faults in fault-id order,    (true error stream,
//             stable-sort by time                  adjudicated by the
//                                                  configured ECC scheme)
//   events <- ApplyDimmReplacement                (operator swap policy)
//   events <- drop silent corruptions             (counted as SDC; no log)
//   events <- ApplyPageRetirement                 (OS mitigation, §3.2)
//   events <- ApplyLogBuffer                      (CE logging loss, §2.3)
//   records <- render MemoryErrorRecord / HetRecord
// The fleet's memory stream merges the nodes' time-ordered runs in node
// order.  Stable sorts and std::inplace_merge keep ties in input order, so
// every stream is a function of the seed alone.
// HET records exist only from `het_firmware_start` onward (§3.5: "We believe
// that HET errors started being recorded following a firmware update in
// August 2019").
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "faultsim/fault_model.hpp"
#include "faultsim/injector.hpp"
#include "faultsim/log_buffer.hpp"
#include "faultsim/mitigation.hpp"
#include "logs/records.hpp"
#include "util/sim_time.hpp"

namespace astra::faultsim {

struct CampaignConfig {
  std::uint64_t seed = 20190120;

  // The paper's failure-analysis window (§2.3).
  TimeWindow window{SimTime::FromCivil(2019, 1, 20), SimTime::FromCivil(2019, 9, 14)};

  // HET recording begins at the August firmware update (§3.5).
  SimTime het_firmware_start = SimTime::FromCivil(2019, 8, 23);

  // Simulate only nodes [0, node_count): scale-down for tests/examples.
  int node_count = kNumNodes;

  // When false (the Astra condition), CE records carry no row field.
  bool record_row_info = false;

  FaultModelConfig fault_model;
  // CE logging loss is a telemetry artifact, not a mitigation — it stays a
  // direct member while the response knobs travel inside the policy.
  LogBufferConfig log_buffer;
  // Retirement / scrub / replacement as one value (the campaign seam).
  MitigationPolicy mitigation;

  // Background non-memory HET noise (power supply events etc., Fig. 15a),
  // fleet-wide rate during the HET recording period.
  double het_noise_events_per_day = 2.0;

  // Apply the campaign seed to every sub-model stream.
  void SeedFrom(std::uint64_t campaign_seed) noexcept;
};

struct CampaignResult {
  // Syslog memory-error stream (CEs and DUEs) in (timestamp, node) order;
  // within a node, in (fault id, draw index) order.
  std::vector<logs::MemoryErrorRecord> memory_errors;
  // HET stream (memory DUEs + background events) stable-sorted by time:
  // memory DUEs in node order, then background events in draw order.
  std::vector<logs::HetRecord> het_records;
  // Ground truth: every latent fault, whether or not it logged anything.
  std::vector<Fault> faults;
  // Logged (post-mitigation) error count per fault id; absent => zero.
  std::unordered_map<std::uint64_t, std::uint64_t> logged_count_by_fault;

  LogBufferStats buffer_stats;
  RetirementStats retirement_stats;
  ReplacementActionStats replacement_stats;

  std::uint64_t total_ces = 0;
  std::uint64_t total_dues = 0;           // DUEs over the whole window
  std::uint64_t dues_recorded_by_het = 0; // DUEs after the firmware update
  // Silent data corruptions: reads the codec mislabeled as corrected/clean.
  // Invisible to every log stream (that is the point), so they are counted
  // here and nowhere else; always 0 under plain SEC-DED, whose double-flip
  // candidates adjudicate detected-uncorrectable.
  std::uint64_t total_sdc = 0;
};

class FleetSimulator {
 public:
  explicit FleetSimulator(const CampaignConfig& config);

  [[nodiscard]] const CampaignConfig& Config() const noexcept { return config_; }
  [[nodiscard]] const FaultInjector& Injector() const noexcept { return injector_; }

  // Run the whole campaign.  Deterministic for a given config at any
  // max_threads (0 = hardware concurrency; pass 1 for a fully serial run —
  // required when the caller is itself inside a ParallelShards region on
  // the shared pool, e.g. the campaign runner's per-trial shards).
  [[nodiscard]] CampaignResult Run(unsigned max_threads = 0) const;

 private:
  // Per-node simulation; called in parallel.
  struct NodeOutput {
    std::vector<logs::MemoryErrorRecord> records;
    std::vector<logs::HetRecord> het;
    std::vector<Fault> faults;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> logged_counts;
    LogBufferStats buffer_stats;
    RetirementStats retirement_stats;
    ReplacementActionStats replacement_stats;
    std::uint64_t ces = 0;
    std::uint64_t dues = 0;
    std::uint64_t dues_het = 0;
    std::uint64_t sdc = 0;
  };
  [[nodiscard]] NodeOutput SimulateNode(NodeId node) const;

  void AppendHetNoise(CampaignResult& result) const;

  CampaignConfig config_;
  FaultInjector injector_;
};

// Vendor-specific syndrome word: an opaque but deterministic function of the
// failing coordinate, as in real controller dumps.
[[nodiscard]] std::uint32_t SyndromeOf(const DramCoord& coord, std::uint64_t seed) noexcept;

}  // namespace astra::faultsim
