#include "src/core/scenario.h"

namespace ac3::core {

uint64_t ScenarioParticipantSeed(int i) {
  return 0x5eed0000ull + static_cast<uint64_t>(i);
}

namespace {

std::vector<chain::TxOutput> FundAll(const std::vector<crypto::PublicKey>& pks,
                                     chain::Amount each) {
  std::vector<chain::TxOutput> out;
  out.reserve(pks.size());
  for (const crypto::PublicKey& pk : pks) {
    out.push_back(chain::TxOutput{each, pk});
  }
  return out;
}

}  // namespace

ScenarioWorld::ScenarioWorld(ScenarioOptions options)
    : options_(options), env_(options.seed) {
  std::vector<crypto::PublicKey> pks;
  for (int i = 0; i < options.participants; ++i) {
    pks.push_back(
        crypto::KeyPair::FromSeed(ScenarioParticipantSeed(i)).public_key());
  }
  chain::MiningConfig mining;
  mining.miner_count = options.miner_count;
  mining.max_propagation_delay = options.max_propagation_delay;
  for (int c = 0; c < options.asset_chains; ++c) {
    chain::ChainParams params = chain::TestChainParams();
    // Built with append rather than operator+ to sidestep GCC 12's
    // -Wrestrict false positive on rvalue string concatenation at -O3.
    params.name = "Asset";
    params.name += std::to_string(c);
    asset_chains_.push_back(
        env_.AddChain(params, FundAll(pks, options.funding), mining));
  }
  if (options.witness_chain) {
    witness_chain_ = env_.AddChain(options.witness_params,
                                   FundAll(pks, options.funding), mining);
  }
  for (int i = 0; i < options.participants; ++i) {
    // Append form for the same -Wrestrict reason as the chain names above.
    std::string name = "P";
    name += std::to_string(i);
    participants_.push_back(std::make_unique<protocols::Participant>(
        std::move(name), ScenarioParticipantSeed(i), &env_));
  }
}

std::vector<protocols::Participant*> ScenarioWorld::all_participants() {
  std::vector<protocols::Participant*> out;
  out.reserve(participants_.size());
  for (auto& p : participants_) out.push_back(p.get());
  return out;
}

std::vector<crypto::PublicKey> ScenarioWorld::participant_keys() const {
  std::vector<crypto::PublicKey> out;
  out.reserve(participants_.size());
  for (const auto& p : participants_) out.push_back(p->pk());
  return out;
}

}  // namespace ac3::core
