#include "faultsim/injector.hpp"

#include <algorithm>
#include <cmath>

#include "ecc/scheme.hpp"

namespace astra::faultsim {
namespace {

// Stream tags for the injector's derived RNGs.
enum : std::uint64_t {
  kTagNodeSusceptibility = 11,
  kTagDimmSusceptibility = 12,
  kTagVendorCode = 13,
  kTagNodeFaults = 14,
  kTagFaultErrors = 15,
};

// Lognormal with mean exactly 1: exp(sigma Z - sigma^2 / 2).
double MeanOneLogNormal(Rng& rng, double sigma) noexcept {
  return std::exp(sigma * rng.Normal() - 0.5 * sigma * sigma);
}

}  // namespace

FaultInjector::FaultInjector(const FaultModelConfig& config, TimeWindow campaign) noexcept
    : config_(config), campaign_(campaign), campaign_days_(campaign.DurationDays()) {}

double FaultInjector::NodeSusceptibility(NodeId node) const noexcept {
  Rng rng(MixSeed(config_.seed, kTagNodeSusceptibility,
                  static_cast<std::uint64_t>(node)));
  return MeanOneLogNormal(rng, config_.node_susceptibility_sigma);
}

double FaultInjector::DimmSusceptibility(NodeId node, DimmSlot slot) const noexcept {
  Rng rng(MixSeed(config_.seed, kTagDimmSusceptibility,
                  static_cast<std::uint64_t>(GlobalDimmIndex(node, slot))));
  return MeanOneLogNormal(rng, config_.dimm_susceptibility_sigma);
}

int FaultInjector::VendorCode(NodeId node, DimmSlot slot) const noexcept {
  std::uint64_t s = MixSeed(config_.seed, kTagVendorCode,
                            static_cast<std::uint64_t>(GlobalDimmIndex(node, slot)));
  return static_cast<int>(SplitMix64(s) & 0x3);
}

double FaultInjector::RateMultiplier(NodeId node, DimmSlot slot, RankId rank) const noexcept {
  const double positional =
      config_.slot_multiplier[static_cast<int>(slot)] *
      (rank == 0 ? config_.rank0_multiplier : config_.rank1_multiplier) *
      config_.region_multiplier[static_cast<int>(RegionOfNode(node))] *
      config_.vendor_multiplier[static_cast<std::size_t>(VendorCode(node, slot))];
  return positional * NodeSusceptibility(node) * DimmSusceptibility(node, slot);
}

SimTime FaultInjector::SampleStartTime(Rng& rng) const noexcept {
  // Inverse-CDF sample of the linearly declining arrival density
  // f(x) ∝ 1 - d*x on x in [0,1] (x = fraction of the campaign elapsed).
  const double d = config_.decline_fraction;
  const double u = rng.UniformDouble();
  double x;
  if (d < 1e-9) {
    x = u;
  } else {
    x = (1.0 - std::sqrt(1.0 - 2.0 * d * u * (1.0 - d / 2.0))) / d;
  }
  x = std::clamp(x, 0.0, 1.0);
  return campaign_.begin.AddSeconds(
      static_cast<std::int64_t>(x * static_cast<double>(campaign_.DurationSeconds())));
}

GroundTruthMode FaultInjector::SampleMode(Rng& rng, double susceptibility) const noexcept {
  // Row probability grows with susceptibility; the remaining mass keeps the
  // other modes' relative proportions.
  const double row_p = config_.RowModeProbability(susceptibility);
  const double others = config_.mode_single_bit + config_.mode_single_word +
                        config_.mode_single_column + config_.mode_single_bank;
  const double rescale = others > 0.0 ? (1.0 - row_p) / others : 0.0;
  // What-if mode multipliers scale the final weights; WeightedIndex
  // normalizes, so all-1.0 draws identically to the unscaled weights.
  const auto& mode_mult = config_.rate_multipliers.mode;
  const double weights[kGroundTruthModeCount] = {
      config_.mode_single_bit * rescale * mode_mult[0],
      config_.mode_single_word * rescale * mode_mult[1],
      config_.mode_single_column * rescale * mode_mult[2],
      row_p * mode_mult[3],
      config_.mode_single_bank * rescale * mode_mult[4]};
  // Order must match the GroundTruthMode enumerators.
  static_assert(static_cast<int>(GroundTruthMode::kSingleRow) == 3);
  return static_cast<GroundTruthMode>(
      rng.WeightedIndex(weights, kGroundTruthModeCount));
}

std::uint64_t FaultInjector::SampleErrorCount(Rng& rng, GroundTruthMode mode,
                                              bool multibit_capable) const noexcept {
  const ErrorCountDistribution& dist =
      mode == GroundTruthMode::kSingleRow ? config_.row_mode_errors
      : multibit_capable                  ? config_.capable_word_errors
                                          : config_.small_mode_errors;
  if (rng.Bernoulli(dist.single_error_probability)) return 1;
  return rng.DiscretePowerLaw(dist.alpha, dist.max_errors);
}

std::vector<Fault> FaultInjector::GenerateNodeFaults(NodeId node) const {
  std::vector<Fault> faults;
  Rng node_rng(MixSeed(config_.seed, kTagNodeFaults, static_cast<std::uint64_t>(node)));

  // Mean arrival count integrates the linear decline: factor (1 - d/2).
  const double decline_factor = 1.0 - config_.decline_fraction / 2.0;

  for (int slot_idx = 0; slot_idx < kDimmSlotCount; ++slot_idx) {
    const auto slot = static_cast<DimmSlot>(slot_idx);
    for (RankId rank = 0; rank < kRanksPerDimm; ++rank) {
      const double susceptibility =
          NodeSusceptibility(node) * DimmSusceptibility(node, slot);
      const double mean = config_.base_rate_per_rank_day * campaign_days_ *
                          decline_factor * RateMultiplier(node, slot, rank) *
                          config_.rate_multipliers.overall;
      const std::uint64_t count = node_rng.Poisson(mean);
      for (std::uint64_t i = 0; i < count; ++i) {
        Fault fault;
        // Stable id: position-derived so ids are deterministic and unique.
        fault.id = (static_cast<std::uint64_t>(node) << 24) |
                   (static_cast<std::uint64_t>(slot_idx) << 20) |
                   (static_cast<std::uint64_t>(rank) << 16) | i;
        fault.mode = SampleMode(node_rng, susceptibility);
        fault.anchor.node = node;
        fault.anchor.socket = SocketOfSlot(slot);
        fault.anchor.slot = slot;
        fault.anchor.rank = rank;
        fault.anchor.bank = static_cast<BankId>(node_rng.UniformInt(kBanksPerRank));
        fault.anchor.row = static_cast<RowId>(node_rng.UniformInt(kRowsPerBank));
        fault.anchor.column = static_cast<ColumnId>(node_rng.UniformInt(kColumnsPerRow));
        fault.anchor.bit =
            static_cast<BitPosition>(node_rng.UniformInt(kCodeBitsPerWord));
        fault.start = SampleStartTime(node_rng);
        fault.lifetime_days = node_rng.LogNormal(config_.lifetime_log_median_days,
                                                 config_.lifetime_log_sigma);
        fault.stuck_bit_count = 1;
        if (fault.mode == GroundTruthMode::kSingleWord) {
          // A word fault is by definition multiple weak bits in one word;
          // whether the bits can misread SIMULTANEOUSLY (defeating SEC-DED)
          // is a separate, rarer property.
          fault.stuck_bit_count = 2 + static_cast<int>(node_rng.UniformInt(3));
          fault.multibit_capable =
              node_rng.Bernoulli(config_.word_fault_multibit_probability);
        }
        fault.error_count =
            SampleErrorCount(node_rng, fault.mode, fault.multibit_capable);
        if (fault.multibit_capable) {
          fault.error_count =
              std::max(fault.error_count, config_.capable_word_min_errors);
        }
        fault.vendor_code = VendorCode(node, slot);
        fault.susceptibility = susceptibility;
        faults.push_back(fault);
      }
    }
  }
  return faults;
}

std::vector<ErrorEvent> FaultInjector::GenerateErrorEvents(const Fault& fault) const {
  std::vector<ErrorEvent> events;
  events.reserve(fault.error_count);
  Rng rng(MixSeed(config_.seed, kTagFaultErrors, fault.id));

  // Active interval, clipped to the campaign.
  const std::int64_t start_s = std::max(fault.start.Seconds(), campaign_.begin.Seconds());
  const auto lifetime_s = static_cast<std::int64_t>(
      fault.lifetime_days * static_cast<double>(SimTime::kSecondsPerDay));
  const std::int64_t end_s =
      std::min(fault.start.Seconds() + std::max<std::int64_t>(lifetime_s, 60),
               campaign_.end.Seconds());
  if (end_s <= start_s) return events;
  const std::uint64_t span = static_cast<std::uint64_t>(end_s - start_s);

  // The stuck-bit set for multi-bit word faults (distinct positions).
  int stuck_bits[4] = {fault.anchor.bit, 0, 0, 0};
  for (int b = 1; b < fault.stuck_bit_count && b < 4; ++b) {
    for (;;) {
      const int candidate = static_cast<int>(rng.UniformInt(kCodeBitsPerWord));
      bool duplicate = false;
      for (int prev = 0; prev < b; ++prev) duplicate |= candidate == stuck_bits[prev];
      if (!duplicate) {
        stuck_bits[b] = candidate;
        break;
      }
    }
  }

  for (std::uint64_t i = 0; i < fault.error_count; ++i) {
    ErrorEvent event;
    event.fault_id = fault.id;
    event.time = SimTime(start_s + static_cast<std::int64_t>(rng.UniformInt(span)));
    event.coord = fault.anchor;
    switch (fault.mode) {
      case GroundTruthMode::kSingleBit:
        break;  // everything anchored
      case GroundTruthMode::kSingleWord:
        event.coord.bit = static_cast<BitPosition>(
            stuck_bits[rng.UniformInt(static_cast<std::uint64_t>(fault.stuck_bit_count))]);
        break;
      case GroundTruthMode::kSingleColumn:
        event.coord.row = static_cast<RowId>(rng.UniformInt(kRowsPerBank));
        break;
      case GroundTruthMode::kSingleRow:
        event.coord.column = static_cast<ColumnId>(rng.UniformInt(kColumnsPerRow));
        break;
      case GroundTruthMode::kSingleBank:
        event.coord.row = static_cast<RowId>(rng.UniformInt(kRowsPerBank));
        event.coord.column = static_cast<ColumnId>(rng.UniformInt(kColumnsPerRow));
        event.coord.bit = static_cast<BitPosition>(rng.UniformInt(kCodeBitsPerWord));
        break;
    }

    // A routine read misreads ONE weak bit: the rank-level code corrects it
    // (a logged CE) — except under on-die ECC, where the device fixes the
    // lone flip before it ever crosses the bus and the host logs nothing.
    // The draws above still happen, so flip sets and event times stay
    // aligned across schemes: a scheme change relabels outcomes only.
    if (config_.ecc_scheme == ecc::EccScheme::kOnDieSecDed) continue;
    events.push_back(event);
  }

  // Multibit candidates: a multibit-capable fault occasionally misreads
  // >= 2 of its stuck bits in the same beat.  Each candidate is adjudicated
  // with the CONFIGURED codec (ecc_scheme) over the same flip pair — under
  // SEC-DED double flips decode as detected-uncorrectable (the historical
  // always-DUE behavior), chipkill corrects the pair when it is confined to
  // one x4 device, and on-die ECC can forward a miscorrected pattern that
  // the host code then mislabels (SDC).  Exactly one rng() draw (the data
  // word) is consumed per candidate under every scheme, so switching the
  // scheme relabels outcomes without moving any event in time.
  if (fault.multibit_capable && fault.stuck_bit_count >= 2) {
    const std::uint64_t due_count = rng.Poisson(
        config_.due_events_per_capable_fault * config_.rate_multipliers.due);
    for (std::uint64_t i = 0; i < due_count; ++i) {
      ErrorEvent event;
      event.fault_id = fault.id;
      event.time = SimTime(start_s + static_cast<std::int64_t>(rng.UniformInt(span)));
      event.coord = fault.anchor;
      event.coord.bit = static_cast<BitPosition>(stuck_bits[0]);
      const int flips[2] = {stuck_bits[0], stuck_bits[1]};
      const std::uint64_t data = rng();
      event.outcome = ecc::AdjudicateWordFault(config_.ecc_scheme, data, flips);
      if (event.outcome == ecc::ErrorOutcome::kClean) continue;
      events.push_back(event);
    }
  }
  return events;
}

double FaultInjector::ExpectedTotalFaults() const noexcept {
  // Susceptibility factors have mean 1, so the expectation reduces to the
  // positional sums.  Region multiplier averages over the three regions.
  double slot_sum = 0.0;
  for (const double m : config_.slot_multiplier) slot_sum += m;
  const double rank_sum = config_.rank0_multiplier + config_.rank1_multiplier;
  double region_mean = 0.0;
  for (const double m : config_.region_multiplier) region_mean += m;
  region_mean /= kRackRegionCount;
  const double decline_factor = 1.0 - config_.decline_fraction / 2.0;
  // Sum over all (node, slot, rank) triples of the positional multipliers.
  return config_.base_rate_per_rank_day * campaign_days_ * decline_factor *
         config_.rate_multipliers.overall * static_cast<double>(kNumNodes) *
         region_mean * slot_sum * rank_sum;
}

}  // namespace astra::faultsim
