// Section 6.1 closed-form latency models.
//
// "The single leader atomic swap protocol ... has two phases ... resulting
//  in [an overall latency] of 2·Δ·Diam(D)."
// "The AC3WN protocol has four phases ... The overall latency ... equals
//  the latency summation of these four phases, 4·Δ."
//
// The models are expressed in units of Δ so simulated runs (which measure
// wall-clock Δs) and the paper's Figure 10 curves are directly comparable.

#ifndef AC3_ANALYSIS_LATENCY_MODEL_H_
#define AC3_ANALYSIS_LATENCY_MODEL_H_

#include <cstdint>

#include "src/common/sim_time.h"

namespace ac3::analysis {

/// Herlihy single-leader latency in Δ units: 2 · Diam(D).
uint32_t HerlihyLatencyDeltas(uint32_t diameter);

/// AC3WN latency in Δ units: a constant 4, independent of the graph.
uint32_t Ac3wnLatencyDeltas();

/// The diameter beyond which AC3WN is strictly faster (Figure 10's
/// crossover): 2·Diam > 4 ⇔ Diam > 2, so every Diam ≥ 3 favours AC3WN and
/// Diam = 2 ties.
uint32_t CrossoverDiameter();

}  // namespace ac3::analysis

#endif  // AC3_ANALYSIS_LATENCY_MODEL_H_
