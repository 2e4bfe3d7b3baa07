// Ready-made multi-blockchain worlds: the public facade used by examples,
// benchmarks, and tests to spin up "N asset chains + a witness chain +
// funded participants" in one line.
//
// A ScenarioWorld owns an Environment plus the Participant objects; chain 0
// .. N-1 are asset chains (chain::TestChainParams) and (optionally) one
// more chain acts as the witness network. Every participant is funded on
// every chain so any graph over the participants is executable.

#ifndef AC3_CORE_SCENARIO_H_
#define AC3_CORE_SCENARIO_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/environment.h"
#include "src/protocols/participant.h"

namespace ac3::core {

struct ScenarioOptions {
  int asset_chains = 2;
  int participants = 2;
  chain::Amount funding = 5000;
  uint64_t seed = 7;
  /// When false the world has only asset chains (HTLC baselines need no
  /// witness; callers may also witness on an asset chain, Section 6.4).
  bool witness_chain = true;
  int miner_count = 3;
  Duration max_propagation_delay = Milliseconds(5);
  /// The witness chain's parameters (the environment assigns the id).
  chain::ChainParams witness_params = chain::TestWitnessParams();
};

/// Key seed for participant `i`; shared between genesis allocations and the
/// Participant identities.
uint64_t ScenarioParticipantSeed(int i);

class ScenarioWorld {
 public:
  explicit ScenarioWorld(ScenarioOptions options = ScenarioOptions{});

  Environment* env() { return &env_; }
  chain::ChainId asset_chain(int i) const { return asset_chains_.at(i); }
  const std::vector<chain::ChainId>& asset_chains() const {
    return asset_chains_;
  }
  /// Only valid when options.witness_chain was true.
  chain::ChainId witness_chain() const { return witness_chain_; }
  protocols::Participant* participant(int i) {
    return participants_.at(i).get();
  }
  std::vector<protocols::Participant*> all_participants();
  std::vector<crypto::PublicKey> participant_keys() const;
  const ScenarioOptions& options() const { return options_; }

  void StartMining() { env_.StartMining(); }

 private:
  ScenarioOptions options_;
  Environment env_;
  std::vector<chain::ChainId> asset_chains_;
  chain::ChainId witness_chain_ = 0;
  std::vector<std::unique_ptr<protocols::Participant>> participants_;
};

}  // namespace ac3::core

#endif  // AC3_CORE_SCENARIO_H_
