// Fault injection: samples the latent fault population and expands each
// fault into its stream of (logged) error events.
#pragma once

#include <cstdint>
#include <vector>

#include "ecc/adjudicate.hpp"
#include "faultsim/fault_model.hpp"
#include "faultsim/fault_modes.hpp"
#include "geometry/topology.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace astra::faultsim {

// A latent defect in one DRAM device region.
struct Fault {
  std::uint64_t id = 0;
  GroundTruthMode mode = GroundTruthMode::kSingleBit;
  DramCoord anchor;            // full anchor; row/column/bit are the defect locus
  SimTime start;
  double lifetime_days = 0.0;  // error-producing lifetime (clipped at window end)
  std::uint64_t error_count = 0;  // errors the fault will emit (pre-mitigation)
  bool multibit_capable = false;  // can corrupt >= 2 bits of one word (DUE risk)
  int stuck_bit_count = 1;        // stuck bits for word faults
  int vendor_code = 0;            // consistent per-DIMM bit-position encoding
  double susceptibility = 1.0;    // combined node*dimm factor (diagnostics)
};

// One memory error occurrence, pre-ECC-logging.  `outcome` is what the
// configured codec (FaultModelConfig::ecc_scheme) adjudicated for the read:
// kCorrected renders as a CE record, kUncorrectable as a DUE record, and
// kSilent is corrupted data with NO log line at all — the fleet driver
// counts it as SDC and drops it before the mitigation pipeline, which can
// only act on what the OS can see.
struct ErrorEvent {
  SimTime time;
  DramCoord coord;
  std::uint64_t fault_id = 0;
  ecc::ErrorOutcome outcome = ecc::ErrorOutcome::kCorrected;

  [[nodiscard]] bool IsDue() const noexcept {
    return outcome == ecc::ErrorOutcome::kUncorrectable;
  }
  [[nodiscard]] bool IsSilent() const noexcept {
    return outcome == ecc::ErrorOutcome::kSilent;
  }
};

class FaultInjector {
 public:
  FaultInjector(const FaultModelConfig& config, TimeWindow campaign) noexcept;

  [[nodiscard]] const FaultModelConfig& Config() const noexcept { return config_; }

  // Static susceptibility factors (lognormal, mean 1), derived from the seed.
  [[nodiscard]] double NodeSusceptibility(NodeId node) const noexcept;
  [[nodiscard]] double DimmSusceptibility(NodeId node, DimmSlot slot) const noexcept;

  // Consistent vendor code of a DIMM (folded into recorded bit positions).
  [[nodiscard]] int VendorCode(NodeId node, DimmSlot slot) const noexcept;

  // Sample all faults arising on `node` during the campaign.  Deterministic
  // per (seed, node): safe to call concurrently for different nodes.
  [[nodiscard]] std::vector<Fault> GenerateNodeFaults(NodeId node) const;

  // Expand a fault into its error-event stream, in draw order: the CE draws,
  // then the multibit candidates.  Not sorted by time.
  [[nodiscard]] std::vector<ErrorEvent> GenerateErrorEvents(const Fault& fault) const;

  // Expected fleet-wide fault count under the configuration (closed form,
  // used by calibration tests and capacity planning in the fleet driver).
  [[nodiscard]] double ExpectedTotalFaults() const noexcept;

 private:
  [[nodiscard]] double RateMultiplier(NodeId node, DimmSlot slot, RankId rank) const noexcept;
  [[nodiscard]] GroundTruthMode SampleMode(Rng& rng, double susceptibility) const noexcept;
  [[nodiscard]] SimTime SampleStartTime(Rng& rng) const noexcept;
  [[nodiscard]] std::uint64_t SampleErrorCount(Rng& rng, GroundTruthMode mode,
                                               bool multibit_capable) const noexcept;

  FaultModelConfig config_;
  TimeWindow campaign_;
  double campaign_days_;
};

}  // namespace astra::faultsim
