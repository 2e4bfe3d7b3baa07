// Section 6.4: AC2T throughput composition.
//
// "For an AC2T that spans multiple blockchains, the throughput is bounded
//  by the slowest involved blockchain in the AC2T including the witness
//  network: min(tps_i, tps_j, ..., tps_n, tps_w)."

#ifndef AC3_ANALYSIS_THROUGHPUT_MODEL_H_
#define AC3_ANALYSIS_THROUGHPUT_MODEL_H_

#include <vector>

#include "src/chain/params.h"

namespace ac3::analysis {

/// min over the involved chains' tps; 0 for an empty set.
double CompositeThroughput(const std::vector<double>& involved_tps);

/// Convenience over chain parameter presets: asset chains plus the witness.
double Ac2tThroughput(const std::vector<chain::ChainParams>& asset_chains,
                      const chain::ChainParams& witness);

/// Section 6.4's guidance: the involved chain with the highest tps — picking
/// the witness from the involved set never lowers the composite throughput.
const chain::ChainParams& BestWitnessAmongInvolved(
    const std::vector<chain::ChainParams>& involved);

}  // namespace ac3::analysis

#endif  // AC3_ANALYSIS_THROUGHPUT_MODEL_H_
