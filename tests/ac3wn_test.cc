// AC3WN protocol-engine tests: the paper's Section 4.2 walkthrough, the
// abort paths of step 6, crash-failure atomicity (Lemmas 5.1/5.3), the
// commitment obligation, and the complex graphs of Section 5.3.

#include "src/protocols/ac3wn_swap.h"

#include <gtest/gtest.h>

#include "src/contracts/permissionless_contract.h"
#include "src/graph/ac2t_graph.h"
#include "tests/test_util.h"

namespace ac3::protocols {
namespace {

using testutil::SwapWorld;
using testutil::SwapWorldOptions;

constexpr TimePoint kDeadline = Minutes(10);

/// The swap-world profile with a 12 s publish patience.
Ac3wnConfig ShortPatience() {
  Ac3wnConfig config;
  config.publish_patience = Seconds(12);
  return config;
}

graph::Ac2tGraph TwoPartyGraph(SwapWorld* world, chain::Amount x = 300,
                               chain::Amount y = 200) {
  return graph::MakeTwoPartySwap(
      world->participant(0)->pk(), world->participant(1)->pk(),
      world->asset_chain(0), x, world->asset_chain(1), y,
      world->env()->sim()->Now());
}

TEST(Ac3wnSwapTest, TwoPartyHappyPathCommits) {
  SwapWorld world;
  world.StartMining();
  Ac3wnSwapEngine engine(world.env(), TwoPartyGraph(&world),
                         world.all_participants(), world.witness_chain(),
                         ShortPatience());
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->finished);
  EXPECT_TRUE(report->committed);
  EXPECT_FALSE(report->aborted);
  EXPECT_TRUE(report->AllRedeemed());
  EXPECT_FALSE(report->AtomicityViolated());
  ASSERT_TRUE(engine.decision_tag().has_value());
  EXPECT_EQ(*engine.decision_tag(), crypto::CommitmentTag::kRedeem);
}

TEST(Ac3wnSwapTest, HappyPathMovesAssetsToRecipients) {
  SwapWorld world;
  world.StartMining();
  const chain::Amount x = 300, y = 200;
  const chain::Amount alice0 = world.participant(0)->BalanceOn(0);
  const chain::Amount bob1 = world.participant(1)->BalanceOn(1);
  Ac3wnSwapEngine engine(world.env(), TwoPartyGraph(&world, x, y),
                         world.all_participants(), world.witness_chain(),
                         ShortPatience());
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->committed);
  const chain::ChainParams& params =
      world.env()->blockchain(world.asset_chain(0))->params();
  // Alice paid x plus the deploy fee on chain 0; Bob received x minus
  // nothing (recipient pays the redeem call fee from his own funds).
  EXPECT_EQ(world.participant(0)->BalanceOn(0),
            alice0 - x - params.deploy_fee);
  EXPECT_EQ(world.participant(1)->BalanceOn(1), bob1 - y - params.deploy_fee);
  EXPECT_GE(world.participant(1)->BalanceOn(0), x - params.call_fee);
  EXPECT_GE(world.participant(0)->BalanceOn(1), y - params.call_fee);
}

TEST(Ac3wnSwapTest, DeclineToPublishAborts) {
  SwapWorld world;
  world.StartMining();
  world.participant(1)->behavior().decline_publish = true;
  Ac3wnSwapEngine engine(world.env(), TwoPartyGraph(&world),
                         world.all_participants(), world.witness_chain(),
                         ShortPatience());
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->finished);
  EXPECT_TRUE(report->aborted);
  EXPECT_FALSE(report->committed);
  EXPECT_FALSE(report->AtomicityViolated());
  // Alice's published contract was refunded; Bob's was never published.
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kRefunded), 1);
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kUnpublished), 1);
}

TEST(Ac3wnSwapTest, ParticipantChangesMindAborts) {
  SwapWorld world;
  world.StartMining();
  Ac3wnConfig config = ShortPatience();
  config.request_abort = true;  // Step 6: "changes her mind".
  Ac3wnSwapEngine engine(world.env(), TwoPartyGraph(&world),
                         world.all_participants(), world.witness_chain(),
                         config);
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->aborted);
  EXPECT_FALSE(report->AtomicityViolated());
  // Whatever was published must be refunded, nothing redeemed.
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kRedeemed), 0);
}

// The paper's motivating scenario: Bob crashes. Under HTLC he loses his
// asset; under AC3WN the swap still commits and Bob redeems after recovery
// (the commitment obligation).
TEST(Ac3wnSwapTest, RecipientCrashStillCommitsAfterRecovery) {
  SwapWorld world;
  world.StartMining();
  Ac3wnSwapEngine engine(world.env(), TwoPartyGraph(&world),
                         world.all_participants(), world.witness_chain(),
                         ShortPatience());
  // Bob crashes right after his contract lands and stays down well past
  // the decision; he recovers later and must still get his bitcoins.
  world.env()->failures()->CrashFor(world.participant(1)->node(), Seconds(5),
                                    Seconds(40));
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->finished);
  EXPECT_TRUE(report->committed);
  EXPECT_TRUE(report->AllRedeemed());
  EXPECT_FALSE(report->AtomicityViolated());
}

TEST(Ac3wnSwapTest, SenderCrashBeforePublishingAborts) {
  SwapWorld world;
  world.StartMining();
  // Bob is down from the start: his contract never appears and the others
  // refund after the patience window.
  world.env()->failures()->CrashFor(world.participant(1)->node(), 0,
                                    Minutes(30));
  Ac3wnSwapEngine engine(world.env(), TwoPartyGraph(&world),
                         world.all_participants(), world.witness_chain(),
                         ShortPatience());
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->aborted);
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kRedeemed), 0);
  EXPECT_FALSE(report->AtomicityViolated());
}

// Section 5.3: the Figure 7 graphs no single-leader protocol can run.
TEST(Ac3wnSwapTest, ExecutesCyclicFigure7aGraph) {
  SwapWorldOptions options;
  options.participants = 3;
  options.asset_chains = 3;
  SwapWorld world(options);
  world.StartMining();
  std::vector<crypto::PublicKey> pks;
  for (auto* p : world.all_participants()) pks.push_back(p->pk());
  graph::Ac2tGraph graph = graph::MakeFigure7aCyclic(
      pks, world.asset_chains(), 100, world.env()->sim()->Now());
  ASSERT_FALSE(graph.FindSingleLeader().has_value())
      << "figure 7a must not be single-leader feasible";
  Ac3wnSwapEngine engine(world.env(), graph, world.all_participants(),
                         world.witness_chain(), ShortPatience());
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->committed);
  EXPECT_TRUE(report->AllRedeemed());
}

TEST(Ac3wnSwapTest, ExecutesDisconnectedFigure7bGraph) {
  SwapWorldOptions options;
  options.participants = 4;
  options.asset_chains = 4;
  SwapWorld world(options);
  world.StartMining();
  std::vector<crypto::PublicKey> pks;
  for (auto* p : world.all_participants()) pks.push_back(p->pk());
  graph::Ac2tGraph graph = graph::MakeFigure7bDisconnected(
      pks, world.asset_chains(), 100, world.env()->sim()->Now());
  ASSERT_FALSE(graph.IsConnected());
  Ac3wnSwapEngine engine(world.env(), graph, world.all_participants(),
                         world.witness_chain(), ShortPatience());
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->committed);
  EXPECT_TRUE(report->AllRedeemed());
}

TEST(Ac3wnSwapTest, MultiPartyRingCommits) {
  SwapWorldOptions options;
  options.participants = 5;
  options.asset_chains = 5;
  SwapWorld world(options);
  world.StartMining();
  std::vector<crypto::PublicKey> pks;
  for (auto* p : world.all_participants()) pks.push_back(p->pk());
  graph::Ac2tGraph graph = graph::MakeRing(pks, world.asset_chains(), 120,
                                           world.env()->sim()->Now());
  Ac3wnSwapEngine engine(world.env(), graph, world.all_participants(),
                         world.witness_chain(), ShortPatience());
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->committed);
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kRedeemed), 5);
  EXPECT_FALSE(report->AtomicityViolated());
}

TEST(Ac3wnSwapTest, AssetChainCanWitnessItself) {
  // Section 6.4: "The witness network should be chosen from the set of
  // involved blockchains" — chain 0 both moves an asset and coordinates.
  SwapWorldOptions options;
  options.witness_chain = false;
  SwapWorld world(options);
  world.StartMining();
  Ac3wnSwapEngine engine(world.env(), TwoPartyGraph(&world),
                         world.all_participants(), world.asset_chain(0),
                         ShortPatience());
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->committed);
  EXPECT_FALSE(report->AtomicityViolated());
}

TEST(Ac3wnSwapTest, RejectsMismatchedParticipants) {
  SwapWorld world;
  Ac3wnSwapEngine engine(world.env(), TwoPartyGraph(&world),
                         {world.participant(0)}, world.witness_chain(),
                         ShortPatience());
  Status status = engine.Start();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(Ac3wnSwapTest, RejectsAnEdgeOnAChainTheWorldLacks) {
  // Chain 7 passes the graph's own checks, but this world has two chains
  // (chain 0 witnesses): Start() must turn the graph away.
  SwapWorldOptions options;
  options.witness_chain = false;
  SwapWorld world(options);
  graph::Ac2tGraph graph = graph::MakeTwoPartySwap(
      world.participant(0)->pk(), world.participant(1)->pk(),
      world.asset_chain(0), 300, /*chain_ba=*/7, 200,
      world.env()->sim()->Now());
  Ac3wnSwapEngine engine(world.env(), graph, world.all_participants(),
                         world.asset_chain(0), ShortPatience());
  EXPECT_EQ(engine.Run(kDeadline).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Ac3wnSwapTest, RejectsUnknownWitnessChain) {
  SwapWorld world;
  Ac3wnSwapEngine engine(world.env(), TwoPartyGraph(&world),
                         world.all_participants(), /*witness_chain=*/99,
                         ShortPatience());
  Status status = engine.Start();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(Ac3wnSwapTest, ReportRecordsPhaseTimeline) {
  SwapWorld world;
  world.StartMining();
  Ac3wnSwapEngine engine(world.env(), TwoPartyGraph(&world),
                         world.all_participants(), world.witness_chain(),
                         ShortPatience());
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->committed);
  // Figure 9's four phases appear in order.
  std::vector<std::string> names;
  for (const auto& [name, at] : report->phases) names.push_back(name);
  auto index_of = [&](const std::string& name) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return static_cast<int>(i);
    }
    return -1;
  };
  ASSERT_GE(index_of("scw_published"), 0);
  ASSERT_GE(index_of("contracts_published"), 0);
  ASSERT_GE(index_of("commit_decided_buried_d"), 0);
  EXPECT_LT(index_of("scw_published"), index_of("contracts_published"));
  EXPECT_LT(index_of("contracts_published"),
            index_of("commit_decided_buried_d"));
  EXPECT_GT(report->decision_time, report->start_time);
  EXPECT_GE(report->end_time, report->decision_time);
}

TEST(Ac3wnSwapTest, FeesIncludeWitnessOverhead) {
  // Section 6.2: AC3WN pays (N+1) deployments and (N+1) calls.
  SwapWorld world;
  world.StartMining();
  Ac3wnSwapEngine engine(world.env(), TwoPartyGraph(&world),
                         world.all_participants(), world.witness_chain(),
                         ShortPatience());
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->committed);
  const auto& asset_params =
      world.env()->blockchain(world.asset_chain(0))->params();
  const auto& witness_params =
      world.env()->blockchain(world.witness_chain())->params();
  const chain::Amount expected =
      2 * (asset_params.deploy_fee + asset_params.call_fee) +
      witness_params.deploy_fee + witness_params.call_fee;
  EXPECT_EQ(report->total_fees, expected);
}

}  // namespace
}  // namespace ac3::protocols
