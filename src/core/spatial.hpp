// Spatial clustering of faults (after Patwari et al., FTXS'17 — the
// paper's reference [23] on "the spatial characteristics of DRAM errors in
// HPC clusters").  Independence would make fault counts per container
// (DIMM, node) Poisson; real fleets — and this simulator's susceptibility
// model — cluster: a device that faulted once is far more likely to fault
// again, and a node with one bad DIMM is more likely to have another.
//
// Measures:
//  - per-container dispersion (variance-to-mean ratio of fault counts;
//    1 = Poisson, > 1 = clustered);
//  - recurrence lift: P(>= 2 faults | >= 1 fault) measured vs the Poisson
//    expectation at the same mean — "how much more likely is a second
//    fault, given a first" (Hwang et al.'s cosmic-rays-don't-strike-twice
//    argument in container form).
#pragma once

#include <cstdint>
#include <span>

#include "core/coalesce.hpp"

namespace astra::core {

struct ContainerClustering {
  std::size_t containers = 0;          // population (with or without faults)
  std::size_t containers_with_fault = 0;
  std::size_t containers_with_repeat = 0;  // >= 2 faults
  double mean_faults = 0.0;
  double dispersion = 0.0;             // var/mean; 1 = Poisson
  double repeat_probability = 0.0;     // P(>=2 | >=1), measured
  double poisson_repeat_probability = 0.0;  // same quantity if Poisson
  // Lift over Poisson; > 1 means observing one fault predicts more.
  [[nodiscard]] double RecurrenceLift() const noexcept {
    return poisson_repeat_probability > 0.0
               ? repeat_probability / poisson_repeat_probability
               : 0.0;
  }
};

struct SpatialAnalysis {
  ContainerClustering per_dimm;
  ContainerClustering per_node;
  // P(a node has >= 2 DISTINCT faulty DIMMs | >= 1 faulty DIMM), vs the
  // independence baseline computed from the marginal DIMM fault incidence.
  double multi_dimm_probability = 0.0;
  double independent_multi_dimm_probability = 0.0;

  [[nodiscard]] double MultiDimmLift() const noexcept {
    return independent_multi_dimm_probability > 0.0
               ? multi_dimm_probability / independent_multi_dimm_probability
               : 0.0;
  }
};

// `node_count` bounds the populations (DIMM population = node_count * 16).
[[nodiscard]] SpatialAnalysis AnalyzeSpatialClustering(const CoalesceResult& coalesced,
                                                       int node_count);

}  // namespace astra::core
