// AC3WN stress tests: fork-heavy witness networks, random transaction
// graphs, larger depth disciplines, and heavy network jitter — the
// protocol's terminal verdict must stay atomic in every run.

#include <gtest/gtest.h>

#include "src/graph/ac2t_graph.h"
#include "src/protocols/ac3wn_swap.h"
#include "tests/test_util.h"

namespace ac3::protocols {
namespace {

using testutil::SwapWorld;
using testutil::SwapWorldOptions;

constexpr TimePoint kDeadline = Minutes(30);

Ac3wnConfig StressConfig(uint32_t d) {
  Ac3wnConfig config;
  config.confirm_depth = 2;  // Asset chains fork too: wait deeper.
  config.witness_depth_d = d;
  config.resubmit_interval = Seconds(1);
  config.publish_patience = Seconds(30);
  return config;
}

// Fork-heavy regime: gossip delays comparable to the block interval on
// every chain, so natural forks occur during the protocol itself.
class ForkHeavySweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ForkHeavySweepTest, AtomicDespiteNaturalForks) {
  SwapWorldOptions options;
  options.seed = GetParam();
  options.miner_count = 4;
  options.max_propagation_delay = Milliseconds(90);  // ~ block interval.
  SwapWorld world(options);
  world.StartMining();
  graph::Ac2tGraph graph = graph::MakeTwoPartySwap(
      world.participant(0)->pk(), world.participant(1)->pk(),
      world.asset_chain(0), 300, world.asset_chain(1), 200, 0);
  Ac3wnSwapEngine engine(world.env(), graph, world.all_participants(),
                         world.witness_chain(), StressConfig(/*d=*/3));
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->AtomicityViolated()) << report->Summary();
  EXPECT_TRUE(report->finished) << report->Summary();
  EXPECT_TRUE(report->committed) << report->Summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForkHeavySweepTest,
                         ::testing::Range<uint64_t>(900, 912));

// Random connected graphs over up to 6 participants: whatever the shape,
// AC3WN commits and stays atomic.
class RandomGraphSwapTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomGraphSwapTest, CommitsAnyConnectedGraph) {
  Rng shape_rng(GetParam());
  const int n = 3 + static_cast<int>(shape_rng.NextBelow(4));
  SwapWorldOptions options;
  options.participants = n;
  options.asset_chains = std::min(n, 4);
  options.seed = GetParam() ^ 0xfeed;
  SwapWorld world(options);
  world.StartMining();

  graph::Ac2tGraph graph = testutil::MakeRandomGraph(
      world.participant_keys(), world.asset_chains(), 100,
      /*extra_edge_prob=*/0.35, &shape_rng,
      static_cast<TimePoint>(GetParam()));
  ASSERT_TRUE(graph.Validate().ok());

  Ac3wnConfig config = StressConfig(/*d=*/2);
  config.confirm_depth = 1;
  Ac3wnSwapEngine engine(world.env(), graph, world.all_participants(),
                         world.witness_chain(), config);
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->finished) << graph.Describe();
  EXPECT_TRUE(report->committed) << graph.Describe();
  EXPECT_FALSE(report->AtomicityViolated()) << graph.Describe();
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kRedeemed),
            static_cast<int>(graph.edge_count()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphSwapTest,
                         ::testing::Range<uint64_t>(1200, 1212));

// Deeper depth disciplines just slow the decision down — never break it.
class DepthSweepTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DepthSweepTest, AnyDepthDisciplineCommits) {
  SwapWorldOptions options;
  options.seed = 1300 + GetParam();
  SwapWorld world(options);
  world.StartMining();
  graph::Ac2tGraph graph = graph::MakeTwoPartySwap(
      world.participant(0)->pk(), world.participant(1)->pk(),
      world.asset_chain(0), 300, world.asset_chain(1), 200, 0);
  Ac3wnConfig config = StressConfig(GetParam());
  config.confirm_depth = 1;
  Ac3wnSwapEngine engine(world.env(), graph, world.all_participants(),
                         world.witness_chain(), config);
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->committed);
  EXPECT_FALSE(report->AtomicityViolated());
  // The decision cannot precede d witness blocks past the authorize call.
  EXPECT_GT(report->decision_time, report->start_time);
}

INSTANTIATE_TEST_SUITE_P(Depths, DepthSweepTest,
                         ::testing::Values(0u, 1u, 2u, 4u, 6u, 8u));

// A sender with several outgoing edges on the SAME chain must fund them
// all without self-double-spending (wallet reservation discipline).
TEST(Ac3wnStressTest, MultipleOutgoingEdgesOnOneChain) {
  SwapWorldOptions options;
  options.participants = 3;
  options.asset_chains = 2;
  options.seed = 1400;
  SwapWorld world(options);
  world.StartMining();
  // P0 pays P1 and P2 on chain 0; they pay P0 back on chain 1.
  std::vector<graph::Ac2tEdge> edges = {
      {0, 1, world.asset_chain(0), 200},
      {0, 2, world.asset_chain(0), 300},
      {1, 0, world.asset_chain(1), 100},
      {2, 0, world.asset_chain(1), 150},
  };
  graph::Ac2tGraph graph(world.participant_keys(), edges, 0);
  ASSERT_TRUE(graph.Validate().ok());
  Ac3wnConfig config = StressConfig(2);
  config.confirm_depth = 1;
  Ac3wnSwapEngine engine(world.env(), graph, world.all_participants(),
                         world.witness_chain(), config);
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->committed) << report->Summary();
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kRedeemed), 4);
}

// A sender whose funds cannot cover the edge amount: the swap must abort
// cleanly (their contract never publishes; everyone else refunds).
TEST(Ac3wnStressTest, UnderfundedSenderAborts) {
  SwapWorldOptions options;
  options.funding = 250;  // Less than the 300 Alice owes.
  options.seed = 1500;
  SwapWorld world(options);
  world.StartMining();
  graph::Ac2tGraph graph = graph::MakeTwoPartySwap(
      world.participant(0)->pk(), world.participant(1)->pk(),
      world.asset_chain(0), 300, world.asset_chain(1), 200, 0);
  Ac3wnConfig config = StressConfig(2);
  config.confirm_depth = 1;
  config.publish_patience = Seconds(8);
  Ac3wnSwapEngine engine(world.env(), graph, world.all_participants(),
                         world.witness_chain(), config);
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->aborted) << report->Summary();
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kRedeemed), 0);
  EXPECT_FALSE(report->AtomicityViolated());
}

// Two engines over the SAME participants and graphs distinguished only by
// the timestamp t: both run to completion independently ("the timestamp t
// is important to distinguish between identical AC2Ts").
TEST(Ac3wnStressTest, IdenticalSwapsDistinguishedByTimestamp) {
  SwapWorldOptions options;
  options.funding = 10000;
  options.seed = 1600;
  SwapWorld world(options);
  world.StartMining();
  graph::Ac2tGraph g1 = graph::MakeTwoPartySwap(
      world.participant(0)->pk(), world.participant(1)->pk(),
      world.asset_chain(0), 300, world.asset_chain(1), 200, /*timestamp=*/1);
  graph::Ac2tGraph g2 = graph::MakeTwoPartySwap(
      world.participant(0)->pk(), world.participant(1)->pk(),
      world.asset_chain(0), 300, world.asset_chain(1), 200, /*timestamp=*/2);
  Ac3wnConfig config = StressConfig(2);
  config.confirm_depth = 1;
  Ac3wnSwapEngine e1(world.env(), g1, world.all_participants(),
                     world.witness_chain(), config);
  Ac3wnSwapEngine e2(world.env(), g2, world.all_participants(),
                     world.witness_chain(), config);
  ASSERT_TRUE(e1.Start().ok());
  ASSERT_TRUE(e2.Start().ok());
  Status done = world.env()->sim()->RunUntilCondition(
      [&]() { return e1.Done() && e2.Done(); }, kDeadline);
  ASSERT_TRUE(done.ok());
  auto r1 = e1.Run(kDeadline);
  auto r2 = e2.Run(kDeadline);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_NE(e1.scw_id(), e2.scw_id()) << "distinct SCw per (D, t)";
  EXPECT_TRUE(r1->committed);
  EXPECT_TRUE(r2->committed);
  EXPECT_FALSE(r1->AtomicityViolated());
  EXPECT_FALSE(r2->AtomicityViolated());
}

}  // namespace
}  // namespace ac3::protocols
