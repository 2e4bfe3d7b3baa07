// Cross-module integration tests:
//  * Lemma 5.3 mechanics: conflicting RDauth / RFauth blocks on two forks
//    of the witness chain, resolved by the longest-chain rule, with the
//    depth-d discipline protecting participants in the interim.
//  * Section 5.2: concurrent AC2Ts coordinated by DIFFERENT witness
//    networks, interleaved on shared asset chains.
//  * Conservation of value across the whole multi-chain world.
//  * The paper's Figure 4 scenario on the Bitcoin/Ethereum parameter
//    presets witnessed by Litecoin.

#include <gtest/gtest.h>

#include "src/contracts/evidence_builder.h"
#include "src/contracts/permissionless_contract.h"
#include "src/contracts/witness_contract.h"
#include "src/graph/ac2t_graph.h"
#include "src/graph/multisig_graph.h"
#include "src/protocols/ac3wn_swap.h"
#include "tests/test_util.h"

namespace ac3 {
namespace {

using testutil::SwapWorld;
using testutil::SwapWorldOptions;

const crypto::KeyPair kAlice = crypto::KeyPair::FromSeed(21);
const crypto::KeyPair kBob = crypto::KeyPair::FromSeed(22);

constexpr TimePoint kDeadline = Minutes(20);

// ------------------------------------------------ Lemma 5.3 fork mechanics

class WitnessForkTest : public ::testing::Test {
 protected:
  static chain::ChainParams WithId(chain::ChainParams params,
                                   chain::ChainId id) {
    params.id = id;
    return params;
  }

  WitnessForkTest()
      : asset_(WithId(chain::TestChainParams(), 0),
               testutil::Fund({kAlice.public_key(), kBob.public_key()}, 2000),
               /*seed=*/301),
        witness_(WithId(chain::TestWitnessParams(), 1),
                 testutil::Fund({kAlice.public_key(), kBob.public_key()},
                                2000),
                 /*seed=*/302),
        alice_asset_(kAlice, 0),
        alice_witness_(kAlice, 1),
        bob_witness_(kBob, 1) {}

  void SetUpContracts(uint32_t d) {
    graph::Ac2tGraph graph({kAlice.public_key(), kBob.public_key()},
                           {graph::Ac2tEdge{0, 1, 0, 400}}, 7);
    auto ms = graph::SignGraph(graph, {kAlice, kBob});
    ASSERT_TRUE(ms.ok());
    contracts::WitnessInit init;
    init.participants = {kAlice.public_key(), kBob.public_key()};
    init.ms_encoded = Encode(*ms);
    contracts::EdgeSpec spec;
    spec.chain_id = 0;
    spec.sender = kAlice.public_key();
    spec.recipient = kBob.public_key();
    spec.amount = 400;
    spec.min_evidence_depth = d;
    spec.asset_checkpoint = asset_.chain().genesis()->block.header;
    spec.asset_difficulty_bits = asset_.chain().params().difficulty_bits;
    init.edges.push_back(spec);
    auto scw_deploy = alice_witness_.BuildDeploy(
        witness_.chain().StateAtHead(), contracts::kWitnessKind, Encode(init),
        0, 4, 1);
    ASSERT_TRUE(scw_deploy.ok());
    ASSERT_TRUE(witness_.MineBlock({*scw_deploy}).ok());
    scw_id_ = scw_deploy->Id();

    contracts::PermissionlessInit sc_init;
    sc_init.recipient = kBob.public_key();
    sc_init.witness_chain_id = 1;
    sc_init.scw_id = scw_id_;
    sc_init.depth = d;
    sc_init.witness_checkpoint = witness_.chain().genesis()->block.header;
    sc_init.witness_difficulty_bits =
        witness_.chain().params().difficulty_bits;
    auto sc_deploy = alice_asset_.BuildDeploy(
        asset_.chain().StateAtHead(), contracts::kPermissionlessKind,
        Encode(sc_init), 400, 4, 2);
    ASSERT_TRUE(sc_deploy.ok());
    ASSERT_TRUE(asset_.MineTxToDepth(*sc_deploy, 1).ok());
    sc_id_ = sc_deploy->Id();
  }

  contracts::WitnessState ScwStateAtHead() {
    auto contract = witness_.chain().ContractAtHead(scw_id_);
    EXPECT_TRUE(contract.ok());
    return dynamic_cast<const contracts::WitnessContract*>(contract->get())
        ->state();
  }

  testutil::TestChain asset_;
  testutil::TestChain witness_;
  chain::Wallet alice_asset_;
  chain::Wallet alice_witness_;
  chain::Wallet bob_witness_;
  crypto::Hash256 scw_id_;
  crypto::Hash256 sc_id_;
};

TEST_F(WitnessForkTest, ConflictingStatesResolveByLongestChain) {
  SetUpContracts(/*d=*/2);

  // Build the two conflicting state-change transactions.
  auto deploy_ev = contracts::BuildTxEvidence(
      asset_.chain(), asset_.chain().genesis()->hash, sc_id_);
  ASSERT_TRUE(deploy_ev.ok());
  auto redeem_call = alice_witness_.BuildCall(
      witness_.chain().StateAtHead(), scw_id_,
      contracts::kAuthorizeRedeemFunction,
      Encode(contracts::EdgeEvidence{{*deploy_ev}}), 2, 10);
  ASSERT_TRUE(redeem_call.ok());
  // Bob (also a participant) issues the conflicting request — the two
  // calls must spend different wallets' funds to coexist on two branches.
  auto refund_call = bob_witness_.BuildCall(
      witness_.chain().StateAtHead(), scw_id_,
      contracts::kAuthorizeRefundFunction, {}, 2, 11);
  ASSERT_TRUE(refund_call.ok());

  // Fork: branch A carries RDauth, branch B (same parent) carries RFauth.
  const crypto::Hash256 fork_parent = witness_.chain().head()->hash;
  ASSERT_TRUE(witness_.MineBlockOn(fork_parent, {*redeem_call}).ok());
  const crypto::Hash256 branch_a = witness_.chain().head()->hash;
  EXPECT_EQ(ScwStateAtHead(), contracts::WitnessState::kRedeemAuthorized);

  ASSERT_TRUE(witness_.MineBlockOn(fork_parent, {*refund_call}).ok());
  // Equal work: the first-seen branch (A) remains canonical.
  EXPECT_TRUE(witness_.chain().IsCanonical(branch_a));
  EXPECT_EQ(ScwStateAtHead(), contracts::WitnessState::kRedeemAuthorized);

  // The depth-d discipline: RDauth has 0 confirmations, so no participant
  // may act on it yet — exactly why the transient conflict is harmless.
  auto rd_call = witness_.chain().FindCall(
      scw_id_, contracts::kAuthorizeRedeemFunction, true);
  ASSERT_TRUE(rd_call.has_value());
  EXPECT_LT(*witness_.chain().ConfirmationsOf(rd_call->entry->hash), 2u);

  // RFauth is not canonically visible while branch B is the loser.
  auto refund_loc = witness_.chain().FindCall(
      scw_id_, contracts::kAuthorizeRefundFunction, true);
  EXPECT_FALSE(refund_loc.has_value()) << "branch B not canonical yet";

  // Branch B grows heavier: the reorg flips the canonical SCw state to
  // RFauth, and the RDauth block is no longer canonical.
  crypto::Hash256 branch_b;
  for (const chain::BlockEntry* entry : witness_.chain().arrival_order()) {
    if (entry->block.header.prev_hash == fork_parent &&
        entry->hash != branch_a) {
      branch_b = entry->hash;
    }
  }
  ASSERT_FALSE(branch_b.IsZero());
  ASSERT_TRUE(witness_.MineBlockOn(branch_b, {}).ok());
  EXPECT_FALSE(witness_.chain().IsCanonical(branch_a));
  EXPECT_EQ(ScwStateAtHead(), contracts::WitnessState::kRefundAuthorized);
}

TEST_F(WitnessForkTest, DepthDisciplineOutlastsShortForkAttack) {
  // A d-deep burial defeats any private fork shorter than d: after the
  // decision is buried, an attacker branch of length < d cannot reorg it.
  const uint32_t d = 3;
  SetUpContracts(d);
  auto deploy_ev = contracts::BuildTxEvidence(
      asset_.chain(), asset_.chain().genesis()->hash, sc_id_);
  ASSERT_TRUE(deploy_ev.ok());
  auto redeem_call = alice_witness_.BuildCall(
      witness_.chain().StateAtHead(), scw_id_,
      contracts::kAuthorizeRedeemFunction,
      Encode(contracts::EdgeEvidence{{*deploy_ev}}), 2, 10);
  ASSERT_TRUE(redeem_call.ok());
  // Bob (also a participant) issues the conflicting request — the two
  // calls must spend different wallets' funds to coexist on two branches.
  auto refund_call = bob_witness_.BuildCall(
      witness_.chain().StateAtHead(), scw_id_,
      contracts::kAuthorizeRefundFunction, {}, 2, 11);
  ASSERT_TRUE(refund_call.ok());

  const crypto::Hash256 fork_parent = witness_.chain().head()->hash;
  ASSERT_TRUE(witness_.MineBlockOn(fork_parent, {*redeem_call}).ok());
  ASSERT_TRUE(witness_.MineEmpty(static_cast<int>(d)).ok());  // Buried >= d.
  EXPECT_EQ(ScwStateAtHead(), contracts::WitnessState::kRedeemAuthorized);

  // Attacker releases a private RFauth branch of length d (< honest d+1).
  ASSERT_TRUE(witness_.MineBlockOn(fork_parent, {*refund_call}).ok());
  crypto::Hash256 tip;
  for (const chain::BlockEntry* entry : witness_.chain().arrival_order()) {
    if (entry->block.header.prev_hash == fork_parent &&
        !witness_.chain().IsCanonical(entry->hash)) {
      tip = entry->hash;
    }
  }
  ASSERT_FALSE(tip.IsZero());
  for (uint32_t i = 1; i < d; ++i) {
    ASSERT_TRUE(witness_.MineBlockOn(tip, {}).ok());
    crypto::Hash256 next;
    for (const chain::BlockEntry* entry : witness_.chain().arrival_order()) {
      if (entry->block.header.prev_hash == tip) next = entry->hash;
    }
    tip = next;
  }
  // The honest branch (d+1 blocks past the parent) still wins.
  EXPECT_EQ(ScwStateAtHead(), contracts::WitnessState::kRedeemAuthorized);
}

// ------------------------------------------- Section 5.2: multi-witness

TEST(MultiWitnessTest, ConcurrentSwapsUseDifferentWitnessNetworks) {
  // Two AC2Ts share the same two asset chains but are coordinated by two
  // different witness networks, running fully interleaved.
  SwapWorldOptions options;
  options.participants = 4;
  options.asset_chains = 4;  // chains 2 and 3 double as witness networks
  options.witness_chain = false;
  SwapWorld world(options);
  world.StartMining();

  graph::Ac2tGraph g1 = graph::MakeTwoPartySwap(
      world.participant(0)->pk(), world.participant(1)->pk(),
      world.asset_chain(0), 300, world.asset_chain(1), 200, 0);
  graph::Ac2tGraph g2 = graph::MakeTwoPartySwap(
      world.participant(2)->pk(), world.participant(3)->pk(),
      world.asset_chain(0), 150, world.asset_chain(1), 100, 1);

  protocols::Ac3wnConfig config;
  config.publish_patience = Seconds(12);

  protocols::Ac3wnSwapEngine e1(world.env(), g1,
                                {world.participant(0), world.participant(1)},
                                world.asset_chain(2), config);
  protocols::Ac3wnSwapEngine e2(world.env(), g2,
                                {world.participant(2), world.participant(3)},
                                world.asset_chain(3), config);
  ASSERT_TRUE(e1.Start().ok());
  ASSERT_TRUE(e2.Start().ok());
  Status done = world.env()->sim()->RunUntilCondition(
      [&]() { return e1.Done() && e2.Done(); }, kDeadline);
  ASSERT_TRUE(done.ok());
  auto r1 = e1.Run(kDeadline);
  auto r2 = e2.Run(kDeadline);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r1->committed) << r1->Summary();
  EXPECT_TRUE(r2->committed) << r2->Summary();
  EXPECT_FALSE(r1->AtomicityViolated());
  EXPECT_FALSE(r2->AtomicityViolated());
  EXPECT_NE(e1.witness_chain(), e2.witness_chain());
}

TEST(MultiWitnessTest, FailedSwapDoesNotDisturbConcurrentSwap) {
  SwapWorldOptions options;
  options.participants = 4;
  options.asset_chains = 4;
  options.witness_chain = false;
  SwapWorld world(options);
  world.StartMining();
  // Swap 2's counterparty declines; swap 1 must still commit.
  world.participant(3)->behavior().decline_publish = true;

  graph::Ac2tGraph g1 = graph::MakeTwoPartySwap(
      world.participant(0)->pk(), world.participant(1)->pk(),
      world.asset_chain(0), 300, world.asset_chain(1), 200, 0);
  graph::Ac2tGraph g2 = graph::MakeTwoPartySwap(
      world.participant(2)->pk(), world.participant(3)->pk(),
      world.asset_chain(0), 150, world.asset_chain(1), 100, 1);

  protocols::Ac3wnConfig config;
  config.publish_patience = Seconds(10);

  protocols::Ac3wnSwapEngine e1(world.env(), g1,
                                {world.participant(0), world.participant(1)},
                                world.asset_chain(2), config);
  protocols::Ac3wnSwapEngine e2(world.env(), g2,
                                {world.participant(2), world.participant(3)},
                                world.asset_chain(3), config);
  ASSERT_TRUE(e1.Start().ok());
  ASSERT_TRUE(e2.Start().ok());
  Status done = world.env()->sim()->RunUntilCondition(
      [&]() { return e1.Done() && e2.Done(); }, kDeadline);
  ASSERT_TRUE(done.ok());
  auto r1 = e1.Run(kDeadline);
  auto r2 = e2.Run(kDeadline);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r1->committed);
  EXPECT_TRUE(r2->aborted);
  EXPECT_FALSE(r1->AtomicityViolated());
  EXPECT_FALSE(r2->AtomicityViolated());
}

// --------------------------------------------------- value conservation

TEST(ConservationTest, WorldValueConservedUpToMiningRewards) {
  SwapWorld world;
  world.StartMining();
  std::vector<chain::Amount> genesis_totals;
  for (size_t c = 0; c < world.env()->chain_count(); ++c) {
    const chain::Blockchain* chain =
        world.env()->blockchain(static_cast<chain::ChainId>(c));
    genesis_totals.push_back(chain->StateAt(*chain->genesis()).TotalValue());
  }
  graph::Ac2tGraph graph = graph::MakeTwoPartySwap(
      world.participant(0)->pk(), world.participant(1)->pk(),
      world.asset_chain(0), 300, world.asset_chain(1), 200, 0);
  protocols::Ac3wnSwapEngine engine(world.env(), graph,
                                    world.all_participants(),
                                    world.witness_chain(), {});
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->committed);
  // Per chain: total value = genesis + height * block_reward (fees are
  // redistributed to miners, never destroyed).
  for (size_t c = 0; c < world.env()->chain_count(); ++c) {
    const chain::Blockchain* chain =
        world.env()->blockchain(static_cast<chain::ChainId>(c));
    EXPECT_EQ(chain->StateAtHead().TotalValue(),
              genesis_totals[c] +
                  chain->height() * chain->params().block_reward)
        << "chain " << c;
  }
}

// ------------------------------------------- participants and chain ids

// A chain id the world lacks (the default world has three chains) is
// turned away by every Participant helper, never dereferenced.
TEST(ParticipantTest, SubmitTransferRefusesAnUnknownChain) {
  SwapWorld world;
  auto submitted = world.participant(0)->SubmitTransfer(
      /*id=*/7, world.participant(1)->pk(), /*amount=*/10, /*fee=*/1);
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParticipantTest, SubmitCallRefusesAnUnknownChain) {
  SwapWorld world;
  auto submitted = world.participant(0)->SubmitCall(
      /*id=*/7, crypto::Hash256::OfString("contract"), "redeem", Bytes{},
      /*fee=*/1);
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParticipantTest, BalanceOnAnUnknownChainIsZero) {
  SwapWorld world;
  EXPECT_EQ(world.participant(0)->BalanceOn(/*id=*/7), 0u);
  EXPECT_GT(world.participant(0)->BalanceOn(world.asset_chain(0)), 0u);
}

// --------------------------------------------------- real-chain presets

TEST(RealPresetsTest, BitcoinEthereumSwapWitnessedByLitecoin) {
  core::Environment env(/*seed=*/4242);
  std::vector<crypto::PublicKey> pks = {
      crypto::KeyPair::FromSeed(testutil::ParticipantSeed(0)).public_key(),
      crypto::KeyPair::FromSeed(testutil::ParticipantSeed(1)).public_key()};
  chain::MiningConfig mining;
  mining.miner_count = 3;
  mining.max_propagation_delay = Milliseconds(5);
  chain::ChainId btc =
      env.AddChain(chain::BitcoinParams(), testutil::Fund(pks, 5000), mining);
  chain::ChainId eth =
      env.AddChain(chain::EthereumParams(), testutil::Fund(pks, 5000), mining);
  chain::ChainId ltc =
      env.AddChain(chain::LitecoinParams(), testutil::Fund(pks, 5000), mining);
  protocols::Participant alice("Alice", testutil::ParticipantSeed(0), &env);
  protocols::Participant bob("Bob", testutil::ParticipantSeed(1), &env);
  env.StartMining();

  // Figure 4: X bitcoins for Y ethers.
  graph::Ac2tGraph graph = graph::MakeTwoPartySwap(
      alice.pk(), bob.pk(), btc, 300, eth, 200, env.sim()->Now());
  protocols::Ac3wnConfig config;
  config.witness_depth_d = 3;
  config.resubmit_interval = Seconds(2);
  config.publish_patience = Seconds(60);
  protocols::Ac3wnSwapEngine engine(&env, graph, {&alice, &bob}, ltc, config);
  auto report = engine.Run(Minutes(60));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->committed) << report->Summary();
  EXPECT_FALSE(report->AtomicityViolated());
}

}  // namespace
}  // namespace ac3
