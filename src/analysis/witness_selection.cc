#include "src/analysis/witness_selection.h"

#include <algorithm>
#include <cmath>

namespace ac3::analysis {

double RequiredDepthBound(double asset_value_usd, double blocks_per_hour,
                          double attack_cost_per_hour_usd) {
  if (attack_cost_per_hour_usd <= 0.0) return INFINITY;
  return asset_value_usd * blocks_per_hour / attack_cost_per_hour_usd;
}

uint32_t MinimumSafeDepth(double asset_value_usd, double blocks_per_hour,
                          double attack_cost_per_hour_usd) {
  const double bound = RequiredDepthBound(asset_value_usd, blocks_per_hour,
                                          attack_cost_per_hour_usd);
  // Strict inequality: on an integral bound the next integer is required.
  double next = std::floor(bound) + 1.0;
  if (next < 1.0) next = 1.0;
  return static_cast<uint32_t>(next);
}

double AttackCostForDepth(uint32_t depth, double blocks_per_hour,
                          double attack_cost_per_hour_usd) {
  if (blocks_per_hour <= 0.0) return INFINITY;
  return static_cast<double>(depth) * attack_cost_per_hour_usd /
         blocks_per_hour;
}

double ForkCatchUpProbability(double attacker_fraction, uint32_t depth) {
  if (attacker_fraction <= 0.0) return 0.0;
  if (attacker_fraction >= 0.5) return 1.0;
  const double ratio = attacker_fraction / (1.0 - attacker_fraction);
  return std::pow(ratio, static_cast<double>(depth));
}

std::vector<WitnessChoice> RankWitnessNetworks(
    const std::vector<chain::ChainParams>& candidates,
    double asset_value_usd) {
  std::vector<WitnessChoice> out;
  out.reserve(candidates.size());
  for (const chain::ChainParams& params : candidates) {
    WitnessChoice choice;
    choice.chain_name = params.name;
    choice.required_depth =
        MinimumSafeDepth(asset_value_usd, params.real_blocks_per_hour,
                         params.attack_cost_per_hour_usd);
    choice.finality_hours =
        static_cast<double>(choice.required_depth) /
        params.real_blocks_per_hour;
    choice.attack_cost_usd =
        AttackCostForDepth(choice.required_depth, params.real_blocks_per_hour,
                           params.attack_cost_per_hour_usd);
    out.push_back(std::move(choice));
  }
  std::sort(out.begin(), out.end(),
            [](const WitnessChoice& a, const WitnessChoice& b) {
              return a.finality_hours < b.finality_hours;
            });
  return out;
}

}  // namespace ac3::analysis
