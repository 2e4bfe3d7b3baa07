// Section 6.3: choosing the witness network and the confirmation depth d.
//
// "To prevent possible maliciousness, the cost of running a 51% attack on
//  the witness network for d blocks must be set to exceed the potential
//  gains ... d must be set to achieve the inequality d > Va·dh/Ch."
//
// Also the fork-survival model behind Lemma 5.3's ε: an attacker holding a
// fraction q of the witness network's mining power catches up from d blocks
// behind with probability (q/(1-q))^d (Nakamoto's gambler's-ruin analysis),
// which is the ε the depth-d discipline drives to negligibility.

#ifndef AC3_ANALYSIS_WITNESS_SELECTION_H_
#define AC3_ANALYSIS_WITNESS_SELECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chain/params.h"

namespace ac3::analysis {

/// The right-hand side of the paper's inequality: Va·dh/Ch blocks.
double RequiredDepthBound(double asset_value_usd, double blocks_per_hour,
                          double attack_cost_per_hour_usd);

/// The smallest integer d that strictly satisfies d > Va·dh/Ch.
/// Paper example: Va = $1M, Ch = $300K/h, dh = 6/h ⇒ bound 20 ⇒ d = 21.
uint32_t MinimumSafeDepth(double asset_value_usd, double blocks_per_hour,
                          double attack_cost_per_hour_usd);

/// Cost of renting a 51% majority long enough to rewrite d blocks:
/// d·Ch/dh dollars.
double AttackCostForDepth(uint32_t depth, double blocks_per_hour,
                          double attack_cost_per_hour_usd);

/// Probability that an attacker with mining-power fraction `q` (< 0.5)
/// eventually overtakes an honest lead of `d` blocks: (q/(1-q))^d.
double ForkCatchUpProbability(double attacker_fraction, uint32_t depth);

/// One row of the witness-network comparison: what depth a chain needs for
/// a given asset value and how long that takes to finalize.
struct WitnessChoice {
  std::string chain_name;
  uint32_t required_depth = 0;
  /// Wall-clock until the decision is buried: required_depth / dh hours.
  double finality_hours = 0.0;
  double attack_cost_usd = 0.0;
};

/// Evaluates every candidate chain for an AC2T of value `asset_value_usd`,
/// sorted by finality time (the practical selection criterion).
std::vector<WitnessChoice> RankWitnessNetworks(
    const std::vector<chain::ChainParams>& candidates,
    double asset_value_usd);

}  // namespace ac3::analysis

#endif  // AC3_ANALYSIS_WITNESS_SELECTION_H_
