#include "src/analysis/throughput_model.h"

#include <algorithm>
#include <cassert>

namespace ac3::analysis {

double CompositeThroughput(const std::vector<double>& involved_tps) {
  if (involved_tps.empty()) return 0.0;
  return *std::min_element(involved_tps.begin(), involved_tps.end());
}

double Ac2tThroughput(const std::vector<chain::ChainParams>& asset_chains,
                      const chain::ChainParams& witness) {
  std::vector<double> tps;
  tps.reserve(asset_chains.size() + 1);
  for (const chain::ChainParams& params : asset_chains) {
    tps.push_back(params.real_tps);
  }
  tps.push_back(witness.real_tps);
  return CompositeThroughput(tps);
}

const chain::ChainParams& BestWitnessAmongInvolved(
    const std::vector<chain::ChainParams>& involved) {
  assert(!involved.empty());
  return *std::max_element(involved.begin(), involved.end(),
                           [](const chain::ChainParams& a,
                              const chain::ChainParams& b) {
                             return a.real_tps < b.real_tps;
                           });
}

}  // namespace ac3::analysis
