// AC3TW protocol-engine tests: the Section 4.1 walkthrough with Trent, the
// mutual exclusion of his two signatures, abort paths, and the
// single-point-of-failure behaviour AC3WN was designed to remove.

#include "src/protocols/ac3tw_swap.h"

#include <gtest/gtest.h>

#include "src/graph/ac2t_graph.h"
#include "src/graph/multisig_graph.h"
#include "tests/test_util.h"

namespace ac3::protocols {
namespace {

using testutil::SwapWorld;
using testutil::SwapWorldOptions;

constexpr TimePoint kDeadline = Minutes(10);

/// The swap-world profile with a 12 s publish patience.
Ac3twConfig ShortPatience() {
  Ac3twConfig config;
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

class Ac3twSwapTest : public ::testing::Test {
 protected:
  Ac3twSwapTest()
      : world_(SwapWorldOptions{.witness_chain = false}),
        trent_("Trent", 0x7ae47, world_.env()) {}

  SwapWorld world_;
  TrustedWitness trent_;
};

TEST_F(Ac3twSwapTest, TwoPartyHappyPathCommits) {
  world_.StartMining();
  Ac3twSwapEngine engine(world_.env(), TwoPartyGraph(&world_),
                         world_.all_participants(), &trent_, ShortPatience());
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->finished);
  EXPECT_TRUE(report->committed);
  EXPECT_TRUE(report->AllRedeemed());
  EXPECT_FALSE(report->AtomicityViolated());
}

TEST_F(Ac3twSwapTest, DeclineToPublishAborts) {
  world_.StartMining();
  world_.participant(1)->behavior().decline_publish = true;
  Ac3twSwapEngine engine(world_.env(), TwoPartyGraph(&world_),
                         world_.all_participants(), &trent_, ShortPatience());
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->aborted);
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kRefunded), 1);
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kUnpublished), 1);
  EXPECT_FALSE(report->AtomicityViolated());
}

TEST_F(Ac3twSwapTest, RequestAbortRefundsEverything) {
  world_.StartMining();
  Ac3twConfig config = ShortPatience();
  config.request_abort = true;
  Ac3twSwapEngine engine(world_.env(), TwoPartyGraph(&world_),
                         world_.all_participants(), &trent_, config);
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->aborted);
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kRedeemed), 0);
  EXPECT_FALSE(report->AtomicityViolated());
}

// Trent being unreachable stalls the protocol: the single point of failure
// (and DoS target) the paper criticizes in Section 4.2's motivation.
TEST_F(Ac3twSwapTest, CrashedTrentStallsTheSwap) {
  world_.StartMining();
  world_.env()->failures()->CrashFor(trent_.node(), 0, Minutes(30));
  Ac3twSwapEngine engine(world_.env(), TwoPartyGraph(&world_),
                         world_.all_participants(), &trent_, ShortPatience());
  ASSERT_TRUE(engine.Start().ok());
  world_.env()->sim()->RunUntil(Minutes(2));
  EXPECT_FALSE(engine.Done());
  EXPECT_FALSE(trent_.IsRegistered(engine.ms_id()));
}

TEST_F(Ac3twSwapTest, SwapResumesWhenTrentRecovers) {
  world_.StartMining();
  world_.env()->failures()->CrashFor(trent_.node(), 0, Seconds(20));
  Ac3twSwapEngine engine(world_.env(), TwoPartyGraph(&world_),
                         world_.all_participants(), &trent_, ShortPatience());
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->committed);
  EXPECT_FALSE(report->AtomicityViolated());
}

TEST_F(Ac3twSwapTest, RecipientCrashStillCommitsAfterRecovery) {
  world_.StartMining();
  world_.env()->failures()->CrashFor(world_.participant(1)->node(),
                                     Seconds(5), Seconds(30));
  Ac3twSwapEngine engine(world_.env(), TwoPartyGraph(&world_),
                         world_.all_participants(), &trent_, ShortPatience());
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->committed);
  EXPECT_TRUE(report->AllRedeemed());
  EXPECT_FALSE(report->AtomicityViolated());
}

TEST_F(Ac3twSwapTest, HandlesCyclicGraph) {
  // AC3TW also coordinates graphs the HTLC protocols cannot (the witness
  // decides, not the publish order).
  SwapWorldOptions options;
  options.participants = 3;
  options.asset_chains = 3;
  options.witness_chain = false;
  SwapWorld world(options);
  TrustedWitness trent("Trent", 0x7ae47, world.env());
  world.StartMining();
  std::vector<crypto::PublicKey> pks;
  for (auto* p : world.all_participants()) pks.push_back(p->pk());
  graph::Ac2tGraph graph = graph::MakeFigure7aCyclic(
      pks, world.asset_chains(), 100, world.env()->sim()->Now());
  Ac3twSwapEngine engine(world.env(), graph, world.all_participants(), &trent,
                         ShortPatience());
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->committed);
  EXPECT_FALSE(report->AtomicityViolated());
}

TEST_F(Ac3twSwapTest, RejectsAnEdgeOnAChainTheWorldLacks) {
  // Chain 7 passes the graph's own checks, but this world has two chains:
  // Start() must turn the graph away before a step reads the chain.
  graph::Ac2tGraph graph = graph::MakeTwoPartySwap(
      world_.participant(0)->pk(), world_.participant(1)->pk(),
      world_.asset_chain(0), 300, /*chain_ba=*/7, 200,
      world_.env()->sim()->Now());
  Ac3twSwapEngine engine(world_.env(), graph, world_.all_participants(),
                         &trent_, ShortPatience());
  EXPECT_EQ(engine.Run(kDeadline).status().code(),
            StatusCode::kInvalidArgument);
}

// ---- Trent unit behaviour (the key/value store rules of Section 4.1) ----

class TrentStoreTest : public ::testing::Test {
 protected:
  TrentStoreTest()
      : world_(SwapWorldOptions{.witness_chain = false}),
        trent_("Trent", 0x7ae47, world_.env()) {
    graph_ = TwoPartyGraph(&world_);
    std::vector<crypto::KeyPair> keys{
        crypto::KeyPair::FromSeed(testutil::ParticipantSeed(0)),
        crypto::KeyPair::FromSeed(testutil::ParticipantSeed(1))};
    ms_ = *graph::SignGraph(graph_, keys);
  }

  SwapWorld world_;
  TrustedWitness trent_;
  graph::Ac2tGraph graph_;
  crypto::Multisignature ms_;
};

TEST_F(TrentStoreTest, RegisterOnceOnly) {
  EXPECT_TRUE(trent_.HandleRegister(ms_).ok());
  Status second = trent_.HandleRegister(ms_);
  EXPECT_EQ(second.code(), StatusCode::kAlreadyExists);
}

TEST_F(TrentStoreTest, RejectsIncompleteMultisignature) {
  crypto::Multisignature partial(Encode(graph_));
  ASSERT_TRUE(partial
                  .AddSignature(crypto::KeyPair::FromSeed(
                      testutil::ParticipantSeed(0)))
                  .ok());
  Status status = trent_.HandleRegister(partial);
  EXPECT_EQ(status.code(), StatusCode::kVerificationFailed);
}

TEST_F(TrentStoreTest, RedeemBeforeRegistrationFails) {
  auto result = trent_.HandleRedeemRequest(ms_.Id());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(TrentStoreTest, RedeemWithoutDeploymentsFails) {
  ASSERT_TRUE(trent_.HandleRegister(ms_).ok());
  auto result = trent_.HandleRedeemRequest(ms_.Id());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  // The failed redeem request must NOT have burned the store entry.
  EXPECT_FALSE(trent_.Lookup(ms_.Id()).has_value());
}

TEST_F(TrentStoreTest, RefundThenRedeemReturnsRefund) {
  ASSERT_TRUE(trent_.HandleRegister(ms_).ok());
  auto refund = trent_.HandleRefundRequest(ms_.Id());
  ASSERT_TRUE(refund.ok());
  EXPECT_EQ(refund->tag, crypto::CommitmentTag::kRefund);
  // Mutual exclusion: a later redeem request re-reads the refund decision.
  auto redeem = trent_.HandleRedeemRequest(ms_.Id());
  ASSERT_TRUE(redeem.ok());
  EXPECT_EQ(redeem->tag, crypto::CommitmentTag::kRefund);
  EXPECT_EQ(redeem->signature, refund->signature);
}

TEST_F(TrentStoreTest, RefundSignatureVerifiesAgainstCommitment) {
  ASSERT_TRUE(trent_.HandleRegister(ms_).ok());
  auto refund = trent_.HandleRefundRequest(ms_.Id());
  ASSERT_TRUE(refund.ok());
  crypto::SignatureCommitment commitment(ms_.Id(), trent_.pk(),
                                         crypto::CommitmentTag::kRefund);
  EXPECT_TRUE(commitment.VerifySecret(refund->signature));
  crypto::SignatureCommitment wrong_tag(ms_.Id(), trent_.pk(),
                                        crypto::CommitmentTag::kRedeem);
  EXPECT_FALSE(wrong_tag.VerifySecret(refund->signature));
}


// Trent's key/value store coordinates many independent AC2Ts at once —
// one decision slot per ms(D), with no cross-swap interference.
TEST(TrentMultiSwapTest, CoordinatesConcurrentSwapsIndependently) {
  SwapWorldOptions options;
  options.participants = 4;
  options.asset_chains = 2;
  options.witness_chain = false;
  options.funding = 8000;
  SwapWorld world(options);
  TrustedWitness trent("Trent", 0x7ae47, world.env());
  world.StartMining();
  // Swap 2's counterparty declines; swap 1 must still commit through the
  // same Trent instance.
  world.participant(3)->behavior().decline_publish = true;

  graph::Ac2tGraph g1 = graph::MakeTwoPartySwap(
      world.participant(0)->pk(), world.participant(1)->pk(),
      world.asset_chain(0), 300, world.asset_chain(1), 200, 1);
  graph::Ac2tGraph g2 = graph::MakeTwoPartySwap(
      world.participant(2)->pk(), world.participant(3)->pk(),
      world.asset_chain(0), 150, world.asset_chain(1), 100, 2);

  Ac3twConfig config = ShortPatience();
  Ac3twSwapEngine e1(world.env(), g1,
                     {world.participant(0), world.participant(1)}, &trent,
                     config);
  Ac3twSwapEngine e2(world.env(), g2,
                     {world.participant(2), world.participant(3)}, &trent,
                     config);
  ASSERT_TRUE(e1.Start().ok());
  ASSERT_TRUE(e2.Start().ok());
  ASSERT_NE(e1.ms_id(), e2.ms_id());
  Status done = world.env()->sim()->RunUntilCondition(
      [&]() { return e1.Done() && e2.Done(); }, kDeadline);
  ASSERT_TRUE(done.ok());
  auto r1 = e1.Run(kDeadline);
  auto r2 = e2.Run(kDeadline);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r1->committed) << r1->Summary();
  EXPECT_TRUE(r2->aborted) << r2->Summary();
  EXPECT_FALSE(r1->AtomicityViolated());
  EXPECT_FALSE(r2->AtomicityViolated());
  // Trent holds two independent decisions.
  auto d1 = trent.Lookup(e1.ms_id());
  auto d2 = trent.Lookup(e2.ms_id());
  ASSERT_TRUE(d1.has_value());
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d1->tag, crypto::CommitmentTag::kRedeem);
  EXPECT_EQ(d2->tag, crypto::CommitmentTag::kRefund);
}

}  // namespace
}  // namespace ac3::protocols
