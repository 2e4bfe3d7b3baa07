// Topology-generator coverage: structural invariants (vertex/edge counts,
// diameter, feasibility classification), determinism under seed, and the
// Section 5.3 functional-gap end-to-end check — HerlihySwapEngine::Start()
// rejects every infeasible family while AC3WN runs them to a commit.

#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/ac2t_graph.h"
#include "src/protocols/ac3wn_swap.h"
#include "src/protocols/herlihy_swap.h"
#include "src/runner/sweep_runner.h"
#include "tests/test_util.h"

namespace ac3 {
namespace {

using testutil::SwapWorld;
using testutil::SwapWorldOptions;

std::vector<crypto::PublicKey> Keys(int n) {
  std::vector<crypto::PublicKey> keys;
  for (int i = 0; i < n; ++i) {
    keys.push_back(
        crypto::KeyPair::FromSeed(4000 + static_cast<uint64_t>(i))
            .public_key());
  }
  return keys;
}

std::vector<chain::ChainId> Chains(int n) {
  std::vector<chain::ChainId> chains;
  for (int i = 0; i < n; ++i) chains.push_back(static_cast<chain::ChainId>(i));
  return chains;
}

// ---- structural invariants -------------------------------------------------

TEST(TopologyTest, PathShape) {
  for (int n : {2, 3, 6}) {
    graph::Ac2tGraph path = graph::MakePath(Keys(n), Chains(2), 100, 0);
    ASSERT_TRUE(path.Validate().ok());
    EXPECT_EQ(path.participant_count(), static_cast<size_t>(n));
    EXPECT_EQ(path.edge_count(), static_cast<size_t>(n - 1));
    EXPECT_EQ(path.Diameter(), static_cast<uint32_t>(n - 1));
    EXPECT_FALSE(path.IsCyclic());
    EXPECT_TRUE(path.IsConnected());
    EXPECT_TRUE(path.FindSingleLeader().has_value());
  }
}

TEST(TopologyTest, StarShape) {
  for (int n : {2, 3, 5, 8}) {
    graph::Ac2tGraph star = graph::MakeStar(Keys(n), Chains(3), 100, 0);
    ASSERT_TRUE(star.Validate().ok());
    EXPECT_EQ(star.edge_count(), static_cast<size_t>(2 * (n - 1)));
    EXPECT_EQ(star.Diameter(), 2u);  // Leaf -> hub -> leaf (and 2-cycles).
    EXPECT_TRUE(star.IsCyclic());
    EXPECT_TRUE(star.IsConnected());
    // The hub is always a valid single leader: removing it strips every
    // edge.
    EXPECT_TRUE(star.AcyclicWithoutVertex(0));
    EXPECT_TRUE(star.FindSingleLeader().has_value());
  }
}

TEST(TopologyTest, CompleteDigraphShape) {
  for (int n : {2, 3, 5}) {
    graph::Ac2tGraph complete =
        graph::MakeCompleteDigraph(Keys(n), Chains(4), 100, 0);
    ASSERT_TRUE(complete.Validate().ok());
    EXPECT_EQ(complete.edge_count(), static_cast<size_t>(n * (n - 1)));
    // Every vertex reaches every other directly (distance 1), but the
    // paper's Diam includes the shortest directed cycle through a vertex —
    // u -> v -> u, length 2 — so the complete digraph has Diam = 2.
    EXPECT_EQ(complete.Diameter(), 2u);
    EXPECT_TRUE(complete.IsConnected());
    // n >= 3: removing any one vertex leaves a 2-cycle — no single leader.
    EXPECT_EQ(complete.FindSingleLeader().has_value(), n == 2);
  }
}

TEST(TopologyTest, RandomFeasibleIsFeasibleForEveryDraw) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    graph::Ac2tGraph g = graph::MakeRandomFeasibleGraph(
        Keys(7), Chains(3), 100, /*chord_prob=*/0.5, &rng, 0);
    ASSERT_TRUE(g.Validate().ok());
    EXPECT_GE(g.edge_count(), 7u);  // At least the ring.
    EXPECT_TRUE(g.IsConnected());
    EXPECT_TRUE(g.IsCyclic());  // The ring is always there.
    // The construction guarantee: vertex 0 is a valid leader.
    EXPECT_TRUE(g.AcyclicWithoutVertex(0)) << "seed " << seed;
  }
}

TEST(TopologyTest, RandomFeasibleIsDeterministicUnderSeed) {
  auto edges_for = [&](uint64_t seed) {
    Rng rng(seed);
    graph::Ac2tGraph g = graph::MakeRandomFeasibleGraph(
        Keys(6), Chains(3), 100, 0.5, &rng, 0);
    std::vector<std::tuple<uint32_t, uint32_t, chain::ChainId>> out;
    for (const graph::Ac2tEdge& e : g.edges()) {
      out.emplace_back(e.from, e.to, e.chain_id);
    }
    return out;
  };
  EXPECT_EQ(edges_for(11), edges_for(11));
  EXPECT_NE(edges_for(11), edges_for(12));  // 6 choose-able chords: very
                                            // likely to differ.
}

TEST(TopologyTest, TopologyOverWorldIsDeterministicUnderSeed) {
  SwapWorldOptions options;
  options.participants = 6;
  options.asset_chains = 3;
  SwapWorld world_a(options), world_b(options);
  graph::Ac2tGraph a = runner::TopologyOverWorld(
      &world_a, runner::Topology::kRandomFeasible, 6, 100, /*seed=*/77);
  graph::Ac2tGraph b = runner::TopologyOverWorld(
      &world_b, runner::Topology::kRandomFeasible, 6, 100, /*seed=*/77);
  EXPECT_EQ(Encode(a), Encode(b));
  graph::Ac2tGraph c = runner::TopologyOverWorld(
      &world_b, runner::Topology::kRandomFeasible, 6, 100, /*seed=*/78);
  EXPECT_NE(Encode(a), Encode(c));
}

TEST(TopologyTest, FeasibilityTableMatchesGraphAnalysis) {
  // TopologySingleLeaderFeasible must agree with FindSingleLeader on the
  // actual generated graphs (sizes where every family is well-formed).
  for (int n : {2, 3, 4, 5, 6}) {
    auto check = [&](runner::Topology topology,
                     const graph::Ac2tGraph& graph) {
      EXPECT_EQ(runner::TopologySingleLeaderFeasible(topology, n),
                graph.FindSingleLeader().has_value())
          << runner::TopologyName(topology) << " at n=" << n;
    };
    check(runner::Topology::kRing, graph::MakeRing(Keys(n), Chains(2), 1, 0));
    check(runner::Topology::kPath, graph::MakePath(Keys(n), Chains(2), 1, 0));
    check(runner::Topology::kStar, graph::MakeStar(Keys(n), Chains(2), 1, 0));
    check(runner::Topology::kComplete,
          graph::MakeCompleteDigraph(Keys(n), Chains(2), 1, 0));
    check(runner::Topology::kFig7aCyclic,
          graph::MakeFigure7aCyclic(Keys(n), Chains(2), 1, 0));
    if (n >= 4) {  // Below 4 the family degenerates to a single pair.
      check(runner::Topology::kFig7bDisconnected,
            graph::MakeFigure7bDisconnected(Keys(n), Chains(2), 1, 0));
    }
  }
}

// ---- the Section 5.3 functional gap, end to end ---------------------------

graph::Ac2tGraph InfeasibleGraph(runner::Topology topology, SwapWorld* world,
                                 int n) {
  return runner::TopologyOverWorld(world, topology, n, 100, /*seed=*/5);
}

TEST(FunctionalGapTest, HerlihyRejectsEveryFigure7Family) {
  for (runner::Topology topology :
       {runner::Topology::kComplete, runner::Topology::kFig7aCyclic,
        runner::Topology::kFig7bDisconnected}) {
    SwapWorldOptions options;
    options.participants = 4;
    options.asset_chains = 4;
    options.witness_chain = false;
    SwapWorld world(options);
    world.StartMining();
    graph::Ac2tGraph graph = InfeasibleGraph(topology, &world, 4);
    ASSERT_FALSE(graph.FindSingleLeader().has_value())
        << runner::TopologyName(topology);
    protocols::HerlihySwapEngine engine(world.env(), graph,
                                        world.all_participants(), {});
    Status started = engine.Start();
    EXPECT_EQ(started.code(), StatusCode::kFailedPrecondition)
        << runner::TopologyName(topology) << ": " << started.ToString();
  }
}

TEST(FunctionalGapTest, Ac3wnCommitsEveryFigure7Family) {
  for (runner::Topology topology :
       {runner::Topology::kComplete, runner::Topology::kFig7aCyclic,
        runner::Topology::kFig7bDisconnected}) {
    SwapWorldOptions options;
    options.participants = 4;
    options.asset_chains = 4;
    options.witness_chain = true;
    SwapWorld world(options);
    world.StartMining();
    graph::Ac2tGraph graph = InfeasibleGraph(topology, &world, 4);
    protocols::Ac3wnSwapEngine engine(world.env(), graph,
                                      world.all_participants(),
                                      world.witness_chain(), {});
    auto report = engine.Run(Minutes(10));
    ASSERT_TRUE(report.ok()) << runner::TopologyName(topology);
    EXPECT_TRUE(report->finished) << runner::TopologyName(topology);
    EXPECT_TRUE(report->committed) << runner::TopologyName(topology);
    EXPECT_FALSE(report->AtomicityViolated());
  }
}

}  // namespace
}  // namespace ac3
