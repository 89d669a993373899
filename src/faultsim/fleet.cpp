#include "faultsim/fleet.hpp"

#include <algorithm>

#include "ecc/adjudicate.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace astra::faultsim {
namespace {

enum : std::uint64_t {
  kTagSyndrome = 21,
  kTagHetNoise = 22,
};

logs::MemoryErrorRecord RenderRecord(const ErrorEvent& event, int vendor_code,
                                     bool record_row_info, std::uint64_t seed) {
  logs::MemoryErrorRecord r;
  r.timestamp = event.time;
  r.node = event.coord.node;
  r.socket = event.coord.socket;
  r.type = event.IsDue() ? logs::FailureType::kUncorrectable
                         : logs::FailureType::kCorrectable;
  r.slot = event.coord.slot;
  r.row = record_row_info ? event.coord.row : logs::kNoRowInfo;
  r.rank = event.coord.rank;
  r.bank = event.coord.bank;
  r.bit_position = logs::EncodeRecordedBit(event.coord.bit, vendor_code);
  r.physical_address = EncodePhysicalAddress(event.coord);
  r.syndrome = SyndromeOf(event.coord, seed);
  return r;
}

// Merges the time-ordered runs [bounds[r], bounds[r + 1]) for r in [lo, hi)
// into one time-ordered range.  std::inplace_merge keeps ties in input
// order, so equal timestamps stay in run order.
void MergeRuns(std::vector<logs::MemoryErrorRecord>& records,
               const std::vector<std::size_t>& bounds, std::size_t lo, std::size_t hi) {
  if (hi - lo < 2) return;
  const std::size_t mid = lo + (hi - lo) / 2;
  MergeRuns(records, bounds, lo, mid);
  MergeRuns(records, bounds, mid, hi);
  const auto first = records.begin();
  std::inplace_merge(first + static_cast<std::ptrdiff_t>(bounds[lo]),
                     first + static_cast<std::ptrdiff_t>(bounds[mid]),
                     first + static_cast<std::ptrdiff_t>(bounds[hi]),
                     [](const logs::MemoryErrorRecord& a, const logs::MemoryErrorRecord& b) {
                       return a.timestamp < b.timestamp;
                     });
}

}  // namespace

std::uint32_t SyndromeOf(const DramCoord& coord, std::uint64_t seed) noexcept {
  const std::uint64_t mixed =
      MixSeed(seed, kTagSyndrome, EncodePhysicalAddress(coord),
              static_cast<std::uint64_t>(coord.node),
              static_cast<std::uint64_t>(coord.bit));
  return static_cast<std::uint32_t>(mixed & 0xFFFFFFFFu);
}

void CampaignConfig::SeedFrom(std::uint64_t campaign_seed) noexcept {
  seed = campaign_seed;
  fault_model.seed = MixSeed(campaign_seed, 0x11);
  mitigation.retirement.seed = MixSeed(campaign_seed, 0x12);
}

FleetSimulator::FleetSimulator(const CampaignConfig& config)
    : config_(config), injector_(config.fault_model, config.window) {}

FleetSimulator::NodeOutput FleetSimulator::SimulateNode(NodeId node) const {
  NodeOutput out;
  out.faults = injector_.GenerateNodeFaults(node);
  if (out.faults.empty()) return out;

  // The node's error stream: each fault's draws, concatenated in fault-id
  // order and stable-sorted by time, so a tie keeps (fault id, draw index)
  // order.
  std::vector<ErrorEvent> events;
  for (const Fault& fault : out.faults) {
    std::vector<ErrorEvent> fault_events = injector_.GenerateErrorEvents(fault);
    events.insert(events.end(), fault_events.begin(), fault_events.end());
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ErrorEvent& a, const ErrorEvent& b) { return a.time < b.time; });

  // Operator replacement sees the raw adjudicated stream (DUEs arrive by
  // machine check whether or not the OS could log them) ...
  events = ApplyDimmReplacement(config_.mitigation, std::move(events),
                                out.replacement_stats);
  // ... then silent corruptions leave the visible stream: wrong data, no log
  // line, nothing for retirement or the log buffer to act on.
  {
    std::vector<ErrorEvent> visible;
    visible.reserve(events.size());
    for (const ErrorEvent& event : events) {
      if (event.outcome == ecc::ErrorOutcome::kClean) continue;
      if (event.IsSilent()) {
        ++out.sdc;
        continue;
      }
      visible.push_back(event);
    }
    events = std::move(visible);
  }
  events = ApplyPageRetirement(config_.mitigation.retirement, std::move(events),
                               out.retirement_stats);
  events = ApplyLogBuffer(config_.log_buffer, std::move(events), out.buffer_stats);

  std::unordered_map<std::uint64_t, std::uint64_t> logged;
  out.records.reserve(events.size());
  for (const ErrorEvent& event : events) {
    out.records.push_back(RenderRecord(
        event, injector_.VendorCode(event.coord.node, event.coord.slot),
        config_.record_row_info, config_.seed));
    ++logged[event.fault_id];
    if (event.IsDue()) {
      ++out.dues;
      if (event.time >= config_.het_firmware_start) {
        ++out.dues_het;
        logs::HetRecord het;
        het.timestamp = event.time;
        het.node = node;
        Rng het_rng(MixSeed(config_.seed, kTagHetNoise, event.fault_id,
                            static_cast<std::uint64_t>(event.time.Seconds())));
        het.event =
            het_rng.Bernoulli(config_.fault_model.due_machine_check_probability)
                ? logs::HetEventType::kUncorrectableMachineCheck
                : logs::HetEventType::kUncorrectableEcc;
        het.severity = logs::HetSeverity::kNonRecoverable;
        het.socket = event.coord.socket;
        het.slot = static_cast<std::int8_t>(event.coord.slot);
        out.het.push_back(het);
      }
    } else {
      ++out.ces;
    }
  }
  out.logged_counts.assign(logged.begin(), logged.end());
  return out;
}

void FleetSimulator::AppendHetNoise(CampaignResult& result) const {
  // Background, non-memory HET events during the recording period.
  const TimeWindow recording{config_.het_firmware_start, config_.window.end};
  if (recording.DurationSeconds() <= 0) return;
  Rng rng(MixSeed(config_.seed, kTagHetNoise));
  const double mean = config_.het_noise_events_per_day * recording.DurationDays() *
                      static_cast<double>(config_.node_count) /
                      static_cast<double>(kNumNodes);
  const std::uint64_t count = rng.Poisson(mean);

  // Event mix loosely matching Fig. 15a's legend frequencies.
  constexpr logs::HetEventType kNoiseTypes[] = {
      logs::HetEventType::kRedundancyLost,
      logs::HetEventType::kUcGoingHigh,
      logs::HetEventType::kPowerSupplyFailureDeasserted,
      logs::HetEventType::kUnrGoingHigh,
      logs::HetEventType::kPowerSupplyFailure,
      logs::HetEventType::kRedundancyInsufficientResources,
  };
  constexpr double kNoiseWeights[] = {0.30, 0.20, 0.18, 0.15, 0.12, 0.05};

  for (std::uint64_t i = 0; i < count; ++i) {
    logs::HetRecord het;
    het.timestamp = recording.begin.AddSeconds(static_cast<std::int64_t>(
        rng.UniformInt(static_cast<std::uint64_t>(recording.DurationSeconds()))));
    het.node = static_cast<NodeId>(rng.UniformInt(
        static_cast<std::uint64_t>(config_.node_count)));
    het.event = kNoiseTypes[rng.WeightedIndex(kNoiseWeights, std::size(kNoiseWeights))];
    het.severity = rng.Bernoulli(0.2) ? logs::HetSeverity::kDegraded
                                      : logs::HetSeverity::kInformational;
    result.het_records.push_back(het);
  }
}

CampaignResult FleetSimulator::Run(unsigned max_threads) const {
  const auto node_count = static_cast<std::size_t>(config_.node_count);
  std::vector<NodeOutput> outputs(node_count);
  ParallelShards(node_count, ResolveThreadCount(max_threads),
                 [this, &outputs](std::size_t, std::size_t begin, std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) {
                     outputs[i] = SimulateNode(static_cast<NodeId>(i));
                   }
                 });

  CampaignResult result;
  std::size_t total_records = 0;
  std::size_t total_faults = 0;
  for (const NodeOutput& out : outputs) {
    total_records += out.records.size();
    total_faults += out.faults.size();
  }
  result.memory_errors.reserve(total_records);
  result.faults.reserve(total_faults);

  // Concatenate in node order; run_bounds[i] is where node i's records begin.
  std::vector<std::size_t> run_bounds;
  run_bounds.reserve(node_count + 1);
  for (NodeOutput& out : outputs) {
    run_bounds.push_back(result.memory_errors.size());
    result.memory_errors.insert(result.memory_errors.end(), out.records.begin(),
                                out.records.end());
    result.het_records.insert(result.het_records.end(), out.het.begin(),
                              out.het.end());
    result.faults.insert(result.faults.end(), out.faults.begin(), out.faults.end());
    for (const auto& [id, logged] : out.logged_counts) {
      result.logged_count_by_fault[id] = logged;
    }
    result.buffer_stats.Merge(out.buffer_stats);
    result.retirement_stats.Merge(out.retirement_stats);
    result.replacement_stats.Merge(out.replacement_stats);
    result.total_ces += out.ces;
    result.total_dues += out.dues;
    result.dues_recorded_by_het += out.dues_het;
    result.total_sdc += out.sdc;
    out = NodeOutput();  // free as we go: the merge below needs room
  }
  run_bounds.push_back(result.memory_errors.size());

  AppendHetNoise(result);

  // Each node's records are already in time order: merging the runs leaves
  // the stream in (timestamp, node) order.
  MergeRuns(result.memory_errors, run_bounds, 0, node_count);
  std::stable_sort(result.het_records.begin(), result.het_records.end(),
                   [](const logs::HetRecord& a, const logs::HetRecord& b) {
                     return a.timestamp < b.timestamp;
                   });
  return result;
}

}  // namespace astra::faultsim
