// HTLC baseline tests: Nolan's two-party swap, Herlihy's generalization,
// and — centrally — the paper's motivating atomicity violation: "if Bob
// fails to provide s to SC1 before t1 expires due to a crash failure ...
// Bob loses his X bitcoins" (Section 1).

#include "src/protocols/herlihy_swap.h"

#include <gtest/gtest.h>

#include "src/contracts/atomic_swap_contract.h"
#include "src/graph/ac2t_graph.h"
#include "tests/test_util.h"

namespace ac3::protocols {
namespace {

using testutil::SwapWorld;
using testutil::SwapWorldOptions;

constexpr TimePoint kDeadline = Minutes(10);

SwapWorldOptions NoWitness() {
  SwapWorldOptions options;
  options.witness_chain = false;
  return options;
}

graph::Ac2tGraph TwoPartyGraph(SwapWorld* world, chain::Amount x = 300,
                               chain::Amount y = 200) {
  return graph::MakeTwoPartySwap(
      world->participant(0)->pk(), world->participant(1)->pk(),
      world->asset_chain(0), x, world->asset_chain(1), y,
      world->env()->sim()->Now());
}

TEST(NolanSwapTest, TwoPartyHappyPathCommits) {
  SwapWorld world(NoWitness());
  world.StartMining();
  HerlihySwapEngine engine(world.env(), TwoPartyGraph(&world),
                           {world.participant(0), world.participant(1)},
                           HtlcConfig{});
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->protocol, "Nolan-HTLC");
  EXPECT_TRUE(report->finished);
  EXPECT_TRUE(report->committed);
  EXPECT_TRUE(report->AllRedeemed());
  EXPECT_FALSE(report->AtomicityViolated());
}

TEST(NolanSwapTest, AssetsActuallyMove) {
  SwapWorld world(NoWitness());
  world.StartMining();
  const chain::Amount x = 300, y = 200;
  const chain::Amount bob_on_0 = world.participant(1)->BalanceOn(0);
  HerlihySwapEngine engine(world.env(), TwoPartyGraph(&world, x, y),
                           {world.participant(0), world.participant(1)},
                           HtlcConfig{});
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->committed);
  const auto& params = world.env()->blockchain(world.asset_chain(0))->params();
  EXPECT_EQ(world.participant(1)->BalanceOn(0),
            bob_on_0 + x - params.call_fee);
}

// The paper's central criticism, reproduced: the recipient crashes after
// the leader reveals the secret; his timelock expires; the sender refunds;
// one contract redeemed + one refunded = the all-or-nothing property is
// violated and the crashed participant is worse off.
TEST(NolanSwapTest, RecipientCrashViolatesAtomicity) {
  SwapWorld world(NoWitness());
  world.StartMining();
  const chain::Amount x = 300, y = 200;
  const chain::Amount bob_on_0 = world.participant(1)->BalanceOn(0);
  const chain::Amount bob_on_1 = world.participant(1)->BalanceOn(1);
  HerlihySwapEngine engine(world.env(), TwoPartyGraph(&world, x, y),
                           {world.participant(0), world.participant(1)},
                           HtlcConfig{});
  ASSERT_TRUE(engine.Start().ok());
  // Run until both contracts are on their chains, then crash Bob before he
  // can observe the secret; he stays down until long after his timelock
  // (start + 5Δ = 10 s).
  Status published = world.env()->sim()->RunUntilCondition(
      [&world]() {
        return !world.env()->blockchain(0)->StateAtHead().contracts.empty() &&
               !world.env()->blockchain(1)->StateAtHead().contracts.empty();
      },
      kDeadline);
  ASSERT_TRUE(published.ok());
  world.env()->failures()->CrashFor(world.participant(1)->node(),
                                    world.env()->sim()->Now(), Seconds(60));
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->finished);
  EXPECT_TRUE(report->AtomicityViolated());
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kRedeemed), 1);
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kRefunded), 1);
  // "Although a crashed participant is the only participant who ends up
  //  worse off": Bob paid y ether and received nothing.
  const auto& params = world.env()->blockchain(world.asset_chain(1))->params();
  EXPECT_EQ(world.participant(1)->BalanceOn(0), bob_on_0);
  EXPECT_EQ(world.participant(1)->BalanceOn(1),
            bob_on_1 - y - params.deploy_fee);
}

TEST(NolanSwapTest, CounterpartyNeverPublishesLeadsToRefund) {
  SwapWorld world(NoWitness());
  world.StartMining();
  world.participant(1)->behavior().decline_publish = true;
  HerlihySwapEngine engine(world.env(), TwoPartyGraph(&world),
                           {world.participant(0), world.participant(1)},
                           HtlcConfig{});
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->finished);
  EXPECT_FALSE(report->committed);
  // Alice's contract expires and refunds; Bob never locked anything. The
  // all-or-nothing property holds on this path (nothing was redeemed).
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kRefunded), 1);
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kUnpublished), 1);
  EXPECT_FALSE(report->AtomicityViolated());
}

TEST(HerlihySwapTest, ThreePartyRingCommits) {
  SwapWorldOptions options = NoWitness();
  options.participants = 3;
  options.asset_chains = 3;
  SwapWorld world(options);
  world.StartMining();
  std::vector<crypto::PublicKey> pks;
  for (auto* p : world.all_participants()) pks.push_back(p->pk());
  graph::Ac2tGraph graph = graph::MakeRing(pks, world.asset_chains(), 100,
                                           world.env()->sim()->Now());
  HerlihySwapEngine engine(world.env(), graph, world.all_participants(),
                           HtlcConfig{});
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->protocol, "Herlihy-HTLC");
  EXPECT_TRUE(report->committed);
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kRedeemed), 3);
  EXPECT_FALSE(report->AtomicityViolated());
}

TEST(HerlihySwapTest, SequentialPublishingCostsDiameterRounds) {
  // Figure 8: the publish phase takes Diam(D) sequential rounds. On a
  // directed ring of 5, Diam = 5; the last contract cannot be published
  // before its sender's incoming contract confirms, 4 hops from the leader.
  SwapWorldOptions options = NoWitness();
  options.participants = 5;
  options.asset_chains = 5;
  SwapWorld world(options);
  world.StartMining();
  std::vector<crypto::PublicKey> pks;
  for (auto* p : world.all_participants()) pks.push_back(p->pk());
  graph::Ac2tGraph graph = graph::MakeRing(pks, world.asset_chains(), 100,
                                           world.env()->sim()->Now());
  ASSERT_EQ(graph.Diameter(), 5u);
  HerlihySwapEngine engine(world.env(), graph, world.all_participants(),
                           HtlcConfig{});
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->committed);
  // Publication forms Diam(D) sequential waves: on the ring 0->1->...->0
  // with leader 0, the edge leaving vertex k cannot publish before the
  // edge leaving k-1 confirmed, so publish times strictly increase with k.
  ASSERT_EQ(report->edges.size(), 5u);
  std::vector<TimePoint> by_sender(5, -1);
  for (const EdgeReport& edge : report->edges) {
    by_sender[edge.edge.from] = edge.published_at;
  }
  const uint32_t leader = engine.leader();
  for (uint32_t hop = 1; hop < 5; ++hop) {
    const uint32_t prev = (leader + hop - 1) % 5;
    const uint32_t cur = (leader + hop) % 5;
    EXPECT_GT(by_sender[cur], by_sender[prev])
        << "wave " << hop << " should publish after wave " << hop - 1;
  }
}

TEST(HerlihySwapTest, RejectsCyclicFigure7aGraph) {
  SwapWorldOptions options = NoWitness();
  options.participants = 3;
  options.asset_chains = 3;
  SwapWorld world(options);
  std::vector<crypto::PublicKey> pks;
  for (auto* p : world.all_participants()) pks.push_back(p->pk());
  graph::Ac2tGraph graph = graph::MakeFigure7aCyclic(
      pks, world.asset_chains(), 100, world.env()->sim()->Now());
  HerlihySwapEngine engine(world.env(), graph, world.all_participants(),
                           HtlcConfig{});
  Status status = engine.Start();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << "figure 7a has no single leader; Nolan/Herlihy must refuse it";
}

TEST(HerlihySwapTest, RejectsDisconnectedFigure7bGraph) {
  SwapWorldOptions options = NoWitness();
  options.participants = 4;
  options.asset_chains = 4;
  SwapWorld world(options);
  std::vector<crypto::PublicKey> pks;
  for (auto* p : world.all_participants()) pks.push_back(p->pk());
  graph::Ac2tGraph graph = graph::MakeFigure7bDisconnected(
      pks, world.asset_chains(), 100, world.env()->sim()->Now());
  HerlihySwapEngine engine(world.env(), graph, world.all_participants(),
                           HtlcConfig{});
  Status status = engine.Start();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(HerlihySwapTest, RejectsAnEdgeOnAChainTheWorldLacks) {
  // Chain 7 passes the graph's own checks, but this world has two chains:
  // Start() must turn the graph away before a step reads the chain.
  SwapWorld world(NoWitness());
  graph::Ac2tGraph graph = graph::MakeTwoPartySwap(
      world.participant(0)->pk(), world.participant(1)->pk(),
      world.asset_chain(0), 300, /*chain_ba=*/7, 200,
      world.env()->sim()->Now());
  HerlihySwapEngine engine(world.env(), graph, world.all_participants(),
                           HtlcConfig{});
  EXPECT_EQ(engine.Run(kDeadline).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(HerlihySwapTest, TimelocksDecreaseAlongPublishOrder) {
  // t1 > t2 in the two-party walkthrough: the first-published contract
  // carries the later timelock, giving downstream redeemers room.
  SwapWorld world(NoWitness());
  world.StartMining();
  HerlihySwapEngine engine(world.env(), TwoPartyGraph(&world),
                           {world.participant(0), world.participant(1)},
                           HtlcConfig{});
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->committed);
  // The leader's redeem releases the secret, so it must be *included
  // on-chain* no later than the non-leader's redeem on the other chain —
  // the causality the timelock headroom (t1 > t2) exists to protect. The
  // engine's own settled_at timestamps are observation times at wake
  // granularity and may legitimately flip across chains, so the assertion
  // reads the chains themselves.
  ASSERT_EQ(report->edges.size(), 2u);
  const EdgeReport& leader_in =
      report->edges[0].edge.to == engine.leader() ? report->edges[0]
                                                  : report->edges[1];
  const EdgeReport& leader_out =
      report->edges[0].edge.to == engine.leader() ? report->edges[1]
                                                  : report->edges[0];
  auto redeem_block_time = [&](const EdgeReport& edge) {
    const chain::Blockchain* chain =
        world.env()->blockchain(edge.edge.chain_id);
    auto call = chain->FindCall(edge.contract_id, contracts::kRedeemFunction,
                                /*require_success=*/true);
    EXPECT_TRUE(call.has_value());
    return call.has_value() ? call->entry->block.header.time : TimePoint{-1};
  };
  EXPECT_LE(redeem_block_time(leader_in), redeem_block_time(leader_out));
}

}  // namespace
}  // namespace ac3::protocols
