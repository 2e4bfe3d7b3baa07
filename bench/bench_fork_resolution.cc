// Section 4.2 / Lemma 5.3 ablation — fork attacks on the witness network
// vs the depth-d discipline.
//
// Grid over (d, attack length L): after the SCw commit decision (RDauth) is
// buried under d blocks, an attacker releases a private branch of L blocks
// forked from just before the decision, carrying the conflicting RFauth.
// The harness reports whether the canonical decision was reversed.
//
// Expected shape: reversal happens iff the attack branch outweighs the
// honest branch (L > honest suffix), i.e. everything strictly above the
// diagonal; participants who wait for d confirmations are only at risk
// from attacks longer than d — whose rental cost Section 6.3 prices.

#include <cstdio>

#include "bench/study.h"
#include "src/analysis/witness_selection.h"
#include "src/chain/wallet.h"
#include "src/contracts/evidence_builder.h"
#include "src/contracts/witness_contract.h"
#include "src/graph/multisig_graph.h"

namespace ac3 {
namespace {

const crypto::KeyPair kAlice = crypto::KeyPair::FromSeed(61);
const crypto::KeyPair kBob = crypto::KeyPair::FromSeed(62);

/// Hand-driven single-chain scenario. Returns true when the RDauth decision
/// buried under `d` honest blocks survives an attacker branch of `attack`
/// blocks carrying RFauth, forked from the decision's parent.
bool DecisionSurvives(uint32_t d, uint32_t attack, uint64_t seed) {
  chain::ChainParams witness_params = chain::TestWitnessParams();
  witness_params.id = 0;
  chain::Blockchain witness(
      witness_params,
      {chain::TxOutput{2000, kAlice.public_key()},
       chain::TxOutput{2000, kBob.public_key()}});
  Rng rng(seed);
  crypto::KeyPair miner = crypto::KeyPair::FromSeed(seed ^ 0xabc);
  TimePoint now = 0;
  auto mine_on = [&](const crypto::Hash256& parent,
                     const std::vector<chain::Transaction>& txs) {
    now += 100;
    auto block = witness.AssembleBlock(parent, txs, miner.public_key(), now,
                                       &rng);
    if (!block.ok()) return crypto::Hash256();
    if (!witness.SubmitBlock(*block, now).ok()) return crypto::Hash256();
    return block->header.Hash();
  };

  // SCw over a trivial one-edge graph (the asset chain is this same chain;
  // the fork dynamics only concern the witness side).
  graph::Ac2tGraph graph({kAlice.public_key(), kBob.public_key()},
                         {graph::Ac2tEdge{0, 1, 0, 100}}, 1);
  auto ms = graph::SignGraph(graph, {kAlice, kBob});
  contracts::WitnessInit init;
  init.participants = {kAlice.public_key(), kBob.public_key()};
  init.ms_encoded = Encode(*ms);
  contracts::EdgeSpec spec;
  spec.chain_id = 0;
  spec.sender = kAlice.public_key();
  spec.recipient = kBob.public_key();
  spec.amount = 100;
  spec.min_evidence_depth = 0;
  spec.asset_checkpoint = witness.genesis()->block.header;
  spec.asset_difficulty_bits = witness_params.difficulty_bits;
  init.edges.push_back(spec);

  chain::Wallet alice(kAlice, 0);
  chain::Wallet bob(kBob, 0);
  auto scw_deploy = alice.BuildDeploy(witness.StateAtHead(),
                                      contracts::kWitnessKind, Encode(init),
                                      0, 4, 1);
  if (!scw_deploy.ok()) return false;
  if (mine_on(witness.head()->hash, {*scw_deploy}).IsZero()) return false;
  const crypto::Hash256 scw_id = scw_deploy->Id();

  // Alice deploys the asset contract on the same chain so AuthorizeRedeem
  // has deployment evidence to verify.
  contracts::PermissionlessInit sc_init;
  sc_init.recipient = kBob.public_key();
  sc_init.witness_chain_id = 0;
  sc_init.scw_id = scw_id;
  sc_init.depth = d;
  sc_init.witness_checkpoint = witness.genesis()->block.header;
  sc_init.witness_difficulty_bits = witness_params.difficulty_bits;
  auto sc_deploy = alice.BuildDeploy(witness.StateAtHead(),
                                     contracts::kPermissionlessKind,
                                     Encode(sc_init), 100, 4, 2);
  if (!sc_deploy.ok()) return false;
  if (mine_on(witness.head()->hash, {*sc_deploy}).IsZero()) return false;

  auto deploy_ev = contracts::BuildTxEvidence(witness, witness.genesis()->hash,
                                              sc_deploy->Id());
  if (!deploy_ev.ok()) return false;
  auto redeem_call = alice.BuildCall(witness.StateAtHead(), scw_id,
                                     contracts::kAuthorizeRedeemFunction,
                                     Encode(contracts::EdgeEvidence{{*deploy_ev}}),
                                     2, 3);
  if (!redeem_call.ok()) return false;
  auto refund_call = bob.BuildCall(witness.StateAtHead(), scw_id,
                                   contracts::kAuthorizeRefundFunction, {}, 2,
                                   4);
  if (!refund_call.ok()) return false;

  // Honest: decision block + d burial blocks.
  const crypto::Hash256 fork_parent = witness.head()->hash;
  if (mine_on(fork_parent, {*redeem_call}).IsZero()) return false;
  for (uint32_t i = 0; i < d; ++i) {
    if (mine_on(witness.head()->hash, {}).IsZero()) return false;
  }

  // Attack: a private branch of `attack` blocks from the same parent, the
  // first carrying the conflicting RFauth.
  crypto::Hash256 tip = mine_on(fork_parent, {*refund_call});
  if (tip.IsZero()) return false;
  for (uint32_t i = 1; i < attack; ++i) {
    tip = mine_on(tip, {});
    if (tip.IsZero()) return false;
  }

  auto contract = witness.ContractAtHead(scw_id);
  if (!contract.ok()) return false;
  const auto* scw =
      dynamic_cast<const contracts::WitnessContract*>(contract->get());
  return scw->state() == contracts::WitnessState::kRedeemAuthorized;
}

}  // namespace

namespace bench {

StudyRun ForkResolution(const Options& context) {
  benchutil::PrintHeader(
      "Lemma 5.3 ablation — buried commit decision vs private-fork attack\n"
      "cell = does the RDauth decision (buried under d blocks) survive an\n"
      "attacker branch of L blocks carrying the conflicting RFauth?");

  const uint32_t kMaxD = context.smoke ? 3 : 6;
  const uint32_t kMaxAttack = context.smoke ? 5 : 8;
  std::printf("%8s |", "");
  for (uint32_t attack = 1; attack <= kMaxAttack; ++attack) {
    std::printf("  L=%-4u", attack);
  }
  std::printf("\n");
  benchutil::PrintRule(10 + 8 * kMaxAttack);
  runner::Json matrix = runner::Json::Array();
  for (uint32_t d = 0; d <= kMaxD; ++d) {
    std::printf("   d=%3u |", d);
    for (uint32_t attack = 1; attack <= kMaxAttack; ++attack) {
      const bool survives = DecisionSurvives(d, attack, 7100 + d * 17 + attack);
      std::printf("  %-5s ", survives ? "ok" : "FLIP");
      runner::Json cell = runner::Json::Object();
      cell.Set("d", d);
      cell.Set("attack_length", attack);
      cell.Set("decision_survives", survives);
      matrix.Push(std::move(cell));
    }
    std::printf("\n");
  }
  benchutil::PrintRule(10 + 8 * kMaxAttack);
  std::printf(
      "\nexpected: FLIP exactly when L > d+1... i.e. when the attacker\n"
      "branch outweighs the honest suffix (decision block + d burials).\n"
      "Participants acting only on >= d confirmations are therefore exposed\n"
      "only to attacks of length > d, which Section 6.3 prices:\n");
  runner::Json pricing = runner::Json::Array();
  for (uint32_t d : {2u, 6u, 21u}) {
    const double cost = analysis::AttackCostForDepth(d + 1, 6.0, 300e3);
    std::printf("  d=%2u on Bitcoin-like witness: attack rental >= $%.0f\n", d,
                cost);
    runner::Json row = runner::Json::Object();
    row.Set("d", d);
    row.Set("attack_rental_usd", cost);
    pricing.Push(std::move(row));
  }
  runner::Json results = runner::Json::Object();
  results.Set("matrix", std::move(matrix));
  results.Set("attack_pricing", std::move(pricing));
  return {std::move(results), runner::Json()};
}

}  // namespace bench
}  // namespace ac3
