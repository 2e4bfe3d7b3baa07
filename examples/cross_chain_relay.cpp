// Figure 6, standalone: miners of one blockchain verifying a transaction
// in another blockchain without running a full node or a light node of it
// (Section 4.3's proposal — the mechanism AC3WN's contracts are built on).
//
// A relay smart contract SC is deployed on blockchain2 (the validator)
// storing a stable header of blockchain1 (the validated). When TX1 lands
// on blockchain1 and becomes stable, anyone submits header-chain evidence
// (headers + PoW + Merkle inclusion proof) to SC; the validator's miners
// check the evidence as a pure function and flip SC from S1 to S2.
//
//   $ ./build/examples/cross_chain_relay

#include <cstdio>

#include "src/chain/blockchain.h"
#include "src/chain/wallet.h"
#include "src/contracts/evidence_builder.h"
#include "src/contracts/relay_contract.h"

using namespace ac3;

namespace {

const crypto::KeyPair kAlice = crypto::KeyPair::FromSeed(1);
const crypto::KeyPair kBob = crypto::KeyPair::FromSeed(2);

struct HandChain {
  chain::Blockchain chain;
  Rng rng;
  TimePoint now = 0;

  HandChain(chain::ChainParams params, uint64_t seed)
      : chain(params,
              {chain::TxOutput{5000, kAlice.public_key()},
               chain::TxOutput{5000, kBob.public_key()}}),
        rng(seed) {}

  bool Mine(const std::vector<chain::Transaction>& txs) {
    now += 100;
    auto block = chain.AssembleBlock(chain.head()->hash, txs,
                                     kAlice.public_key(), now, &rng);
    return block.ok() && chain.SubmitBlock(*block, now).ok();
  }
};

chain::ChainParams Params(const char* name, chain::ChainId id) {
  chain::ChainParams params = chain::TestChainParams();
  params.name = name;
  params.id = id;
  return params;
}

}  // namespace

int main() {
  HandChain validated(Params("blockchain1", 0), 11);  // where TX1 happens
  HandChain validator(Params("blockchain2", 1), 22);  // where SC lives

  chain::Wallet alice1(kAlice, 0);
  chain::Wallet alice2(kAlice, 1);

  // TX1: the transaction of interest on blockchain1 (not yet submitted).
  auto tx1 = alice1.BuildTransfer(validated.chain.StateAtHead(),
                                  kBob.public_key(), 42, 1, 1);
  if (!tx1.ok()) return 1;
  std::printf("TX1 id: %s (a transfer on blockchain1)\n",
              tx1->Id().ShortHex().c_str());

  // Label 1-2 (Figure 6): deploy SC on blockchain2 storing a stable header
  // of blockchain1 and demanding depth-2 stability of TX1's block.
  contracts::RelayInit init;
  init.checkpoint = validated.chain.genesis()->block.header;
  init.validated_difficulty_bits = validated.chain.params().difficulty_bits;
  init.interesting_tx = tx1->Id();
  init.required_depth = 2;
  auto deploy = alice2.BuildDeploy(validator.chain.StateAtHead(),
                                   contracts::kRelayKind, Encode(init), 0, 4,
                                   1);
  if (!deploy.ok() || !validator.Mine({*deploy})) return 1;
  std::printf("SC deployed on blockchain2, state S1, checkpoint = "
              "blockchain1 genesis\n");

  // Label 3-4: TX1 takes place and its block becomes stable (depth 2).
  // blockchain1 indexes the transfers it is asked about: watch TX1 first,
  // so the evidence builder can locate it.
  validated.chain.Watch(tx1->Id());
  if (!validated.Mine({*tx1})) return 1;
  if (!validated.Mine({}) || !validated.Mine({})) return 1;
  std::printf("TX1 mined on blockchain1 and buried under 2 blocks\n");

  // Label 5-6: submit the evidence to SC via a function call.
  auto evidence = contracts::BuildTxEvidence(
      validated.chain, validated.chain.genesis()->hash, tx1->Id());
  if (!evidence.ok()) return 1;
  std::printf("evidence: %zu headers + Merkle proof, %u confirmations shown\n",
              evidence->headers.size(), evidence->ConfirmationsShown());
  auto call = alice2.BuildCall(validator.chain.StateAtHead(), deploy->Id(),
                               contracts::kSubmitEvidenceFunction,
                               Encode(*evidence), 2, 2);
  if (!call.ok() || !validator.Mine({*call})) return 1;

  auto contract = validator.chain.ContractAtHead(deploy->Id());
  if (!contract.ok()) return 1;
  const auto* relay =
      dynamic_cast<const contracts::RelayContract*>(contract->get());
  std::printf("SC state after evidence: %s\n",
              relay->state() == contracts::RelayState::kS2 ? "S2 (TX1 proven)"
                                                           : "S1");

  // A forged proof is rejected: tamper with the leaf and resubmit.
  contracts::HeaderChainEvidence forged = *evidence;
  forged.leaf[0] ^= 0x01;
  auto bad_call = alice2.BuildCall(validator.chain.StateAtHead(), deploy->Id(),
                                   contracts::kSubmitEvidenceFunction,
                                   Encode(forged), 2, 3);
  if (bad_call.ok() && validator.Mine({*bad_call})) {
    auto location = validator.chain.FindTx(bad_call->Id());
    if (location.has_value()) {
      std::printf("forged evidence call landed with success=%s (rejected by "
                  "the contract's pure verification)\n",
                  location->entry->block.receipts[location->index].success
                      ? "true?!"
                      : "false");
    }
  }
  std::printf(
      "\nblockchain2's miners never read blockchain1: the relay verified\n"
      "linkage + PoW + Merkle inclusion from the submitted bytes alone.\n");
  return relay->state() == contracts::RelayState::kS2 ? 0 : 1;
}
