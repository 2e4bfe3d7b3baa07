// Engine-boundary property: the four engines take a swap graph from
// outside, so a graph decoded from mutated bytes is handed to each of them.
// Whatever the mutant, a run must either be turned away with a Status or
// end with a report, and all four engines' Start() must agree on which;
// every chain of the world must conserve value; and the
// engines that decide one verdict (AC3TW, AC3WN, quorum) must finish
// atomically. Herlihy's unfinished or non-atomic runs are counted, not
// failed — the benchmark's own rule (its timelock race is documented in
// atomicity_property_test.cc). The sanitizer job runs this suite, so a
// mutant that drives an engine into undefined behaviour fails there.

#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <vector>

#include "src/graph/ac2t_graph.h"
#include "src/protocols/ac3tw_swap.h"
#include "src/protocols/ac3wn_swap.h"
#include "src/protocols/herlihy_swap.h"
#include "src/protocols/quorum_commit.h"
#include "src/protocols/trent.h"
#include "src/runner/sweep_runner.h"
#include "tests/test_util.h"

namespace ac3 {
namespace {

using runner::Protocol;

constexpr TimePoint kDeadline = Minutes(10);
/// Mutants drawn from the seed graph's encoding. At this seed 62 of the
/// 320 decode: 38 are turned away by every engine's Start() (an endpoint
/// out of range, an unknown chain, a self transfer, a zero amount, or a
/// vertex key that is not its participant's), and 24 run on all four
/// engines — 7 commit, 17 cannot fund a leg and abort. The 248 worlds take
/// about 0.7 s in Release.
constexpr int kMutants = 320;
constexpr uint64_t kMutationSeed = 28;

/// A fresh world: two asset chains, plus the witness chain for AC3WN.
core::ScenarioOptions WorldOptions(Protocol protocol) {
  core::ScenarioOptions options;
  options.witness_chain = protocol == Protocol::kAc3wn;
  return options;
}

Result<protocols::SwapReport> RunEngine(Protocol protocol,
                                        const graph::Ac2tGraph& graph,
                                        core::ScenarioWorld* world) {
  core::Environment* env = world->env();
  switch (protocol) {
    case Protocol::kHerlihy: {
      protocols::HerlihySwapEngine engine(env, graph,
                                          world->all_participants(),
                                          protocols::HtlcConfig{});
      return engine.Run(kDeadline);
    }
    case Protocol::kAc3tw: {
      protocols::TrustedWitness trent("Trent", 0x7e27, env,
                                      protocols::EngineConfig{}.confirm_depth);
      protocols::Ac3twSwapEngine engine(env, graph, world->all_participants(),
                                        &trent, protocols::Ac3twConfig{});
      return engine.Run(kDeadline);
    }
    case Protocol::kAc3wn: {
      protocols::Ac3wnSwapEngine engine(env, graph, world->all_participants(),
                                        world->witness_chain(),
                                        protocols::Ac3wnConfig{});
      return engine.Run(kDeadline);
    }
    case Protocol::kQuorum: {
      protocols::QuorumCommitEngine engine(
          env, graph, world->all_participants(),
          protocols::QuorumConfig{});
      return engine.Run(kDeadline);
    }
  }
  return Status::Internal("unknown protocol");
}

/// Per chain: total value = genesis + height * block_reward (fees are
/// redistributed to miners, never destroyed), as ConservationTest checks.
std::vector<chain::Amount> GenesisTotals(core::ScenarioWorld* world) {
  std::vector<chain::Amount> totals;
  for (size_t c = 0; c < world->env()->chain_count(); ++c) {
    const chain::Blockchain* chain =
        world->env()->blockchain(static_cast<chain::ChainId>(c));
    totals.push_back(chain->StateAt(*chain->genesis()).TotalValue());
  }
  return totals;
}

TEST(EngineBoundaryPropertyTest, MutatedGraphsAreRejectedOrSettleSafely) {
  // Mutants that cannot be funded warn on every publish attempt (about 30k
  // lines). The warning log writes through std::cerr, so they go to a
  // string; sanitizer reports write to the descriptor and still show.
  std::ostringstream warnings;
  std::streambuf* const stderr_buffer = std::cerr.rdbuf(warnings.rdbuf());

  core::ScenarioWorld seed_world(WorldOptions(Protocol::kHerlihy));
  const Bytes sample = Encode(graph::MakeTwoPartySwap(
      seed_world.participant(0)->pk(), seed_world.participant(1)->pk(),
      seed_world.asset_chain(0), 300, seed_world.asset_chain(1), 200, 0));

  Rng rng(kMutationSeed);
  int decoded = 0;
  int rejected = 0;
  int reports = 0;
  int herlihy_anomalies = 0;
  for (int i = 0; i < kMutants; ++i) {
    const Bytes mutant = testutil::Mutate(sample, &rng);
    Result<graph::Ac2tGraph> graph = Decode<graph::Ac2tGraph>(mutant);
    if (!graph.ok()) continue;
    ++decoded;
    std::vector<bool> started;
    for (Protocol protocol : {Protocol::kHerlihy, Protocol::kAc3tw,
                              Protocol::kAc3wn, Protocol::kQuorum}) {
      SCOPED_TRACE(testing::Message()
                   << "mutant " << i << " " << ToHex(mutant) << " "
                   << runner::ProtocolName(protocol));
      core::ScenarioWorld world(WorldOptions(protocol));
      const std::vector<chain::Amount> genesis = GenesisTotals(&world);
      world.StartMining();
      Result<protocols::SwapReport> report =
          RunEngine(protocol, *graph, &world);
      for (size_t c = 0; c < world.env()->chain_count(); ++c) {
        const chain::Blockchain* chain =
            world.env()->blockchain(static_cast<chain::ChainId>(c));
        EXPECT_EQ(chain->StateAtHead().TotalValue(),
                  genesis[c] + chain->height() * chain->params().block_reward)
            << "chain " << c;
      }
      started.push_back(report.ok());
      if (!report.ok()) {
        ++rejected;
        continue;
      }
      ++reports;
      if (report->finished && !report->AtomicityViolated()) continue;
      if (protocol == Protocol::kHerlihy) {
        ++herlihy_anomalies;
      } else {
        ADD_FAILURE() << "unfinished or non-atomic\n" << report->Summary();
      }
    }
    EXPECT_EQ(started, std::vector<bool>(started.size(), started[0]))
        << "engines disagree on mutant " << i << " " << ToHex(mutant);
  }
  std::cerr.rdbuf(stderr_buffer);
  EXPECT_EQ(warnings.str().rfind("[WARN] ", 0), 0u);
  EXPECT_NE(warnings.str().find("cannot fund"), std::string::npos);

  // Both sides of the boundary ran: some mutants were turned away at
  // Start(), and some reached the engines' state machines.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(reports, 0);
  RecordProperty("decoded_mutants", decoded);
  RecordProperty("herlihy_anomalies", herlihy_anomalies);
}

}  // namespace
}  // namespace ac3
