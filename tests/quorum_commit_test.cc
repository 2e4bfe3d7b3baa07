// QuorumCommit engine tests: the 3PC-style phase machine
// (prepare/pre-commit/commit), quorum counting, the epoch-takeover
// recovery path, the n = 2 lone-survivor boundary, deterministic
// crash-at-each-phase schedules across every topology family, and a
// workload-driven end-to-end run with a mid-run coordinator crash.

#include "src/protocols/quorum_commit.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/graph/ac2t_graph.h"
#include "src/runner/sweep_runner.h"
#include "src/sim/workload.h"
#include "tests/test_util.h"

namespace ac3::protocols {
namespace {

using testutil::SwapWorld;
using testutil::SwapWorldOptions;

constexpr TimePoint kDeadline = Minutes(10);

/// The swap-world profile with a 12 s publish patience.
QuorumConfig ShortPatience() {
  QuorumConfig config;
  config.publish_patience = Seconds(12);
  return config;
}

bool HasPhase(const SwapReport& report, const std::string& name) {
  for (const auto& [phase, at] : report.phases) {
    if (phase == name) return true;
  }
  return false;
}

/// Index of the first occurrence of `name`, or -1 — ordering assertions.
int PhaseIndex(const SwapReport& report, const std::string& name) {
  for (size_t i = 0; i < report.phases.size(); ++i) {
    if (report.phases[i].first == name) return static_cast<int>(i);
  }
  return -1;
}

SwapWorldOptions RingWorldOptions(int n) {
  SwapWorldOptions options;
  options.participants = n;
  options.asset_chains = n < 4 ? n : 4;
  options.witness_chain = false;
  return options;
}

graph::Ac2tGraph RingGraph(SwapWorld* world, int n) {
  return runner::RingOverWorld(world, n, /*amount=*/100);
}

// ---- the fault-free phase machine -----------------------------------------

TEST(QuorumCommitTest, RingHappyPathWalksPrepramblePreCommitCommit) {
  SwapWorld world(RingWorldOptions(4));
  world.StartMining();
  QuorumCommitEngine engine(world.env(), RingGraph(&world, 4),
                            world.all_participants(), ShortPatience());
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->finished);
  EXPECT_TRUE(report->committed);
  EXPECT_TRUE(report->AllRedeemed());
  EXPECT_FALSE(report->AtomicityViolated());
  EXPECT_EQ(engine.epoch(), 0u);
  ASSERT_TRUE(engine.decision_tag().has_value());
  EXPECT_EQ(*engine.decision_tag(), crypto::CommitmentTag::kRedeem);

  // Phase order pins the 3PC shape: every contract publicly recognized,
  // then the pre-commit round, then the quorum-signed decision.
  const int prepared = PhaseIndex(*report, "contracts_published");
  const int precommit = PhaseIndex(*report, "precommit_round_started");
  const int decided = PhaseIndex(*report, "quorum_commit_decided");
  ASSERT_GE(prepared, 0);
  ASSERT_GE(precommit, 0);
  ASSERT_GE(decided, 0);
  EXPECT_LT(prepared, precommit);
  EXPECT_LT(precommit, decided);
}

TEST(QuorumCommitTest, QuorumIsAStrictMajority) {
  for (int n = 2; n <= 5; ++n) {
    SwapWorld world(RingWorldOptions(n));
    QuorumCommitEngine engine(world.env(), RingGraph(&world, n),
                              world.all_participants(), ShortPatience());
    EXPECT_EQ(engine.quorum(), n / 2 + 1) << "n=" << n;
  }
}

TEST(QuorumCommitTest, DeclineToPublishDrivesTheAbortVerdict) {
  SwapWorld world(RingWorldOptions(4));
  world.StartMining();
  world.participant(1)->behavior().decline_publish = true;
  QuorumCommitEngine engine(world.env(), RingGraph(&world, 4),
                            world.all_participants(), ShortPatience());
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->finished);
  EXPECT_TRUE(report->aborted);
  EXPECT_TRUE(HasPhase(*report, "quorum_abort_decided"));
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kRefunded), 3);
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kUnpublished), 1);
  EXPECT_FALSE(report->AtomicityViolated());
}

TEST(QuorumCommitTest, RequestAbortRefundsEverything) {
  SwapWorld world(RingWorldOptions(4));
  world.StartMining();
  QuorumConfig config = ShortPatience();
  config.request_abort = true;
  QuorumCommitEngine engine(world.env(), RingGraph(&world, 4),
                            world.all_participants(), config);
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->aborted);
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kRedeemed), 0);
  EXPECT_FALSE(report->AtomicityViolated());
  ASSERT_TRUE(engine.decision_tag().has_value());
  EXPECT_EQ(*engine.decision_tag(), crypto::CommitmentTag::kRefund);
}

// ---- coordinator crash + recovery takeover --------------------------------

TEST(QuorumCommitTest, CoordinatorCrashAtPrepareRecoversViaTakeover) {
  SwapWorld world(RingWorldOptions(4));
  world.StartMining();
  QuorumConfig config = ShortPatience();
  config.coordinator_crash.phase = CoordinatorCrashPhase::kAtPrepare;
  QuorumCommitEngine engine(world.env(), RingGraph(&world, 4),
                            world.all_participants(), config);
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->finished);
  EXPECT_TRUE(report->committed);
  EXPECT_TRUE(report->AllRedeemed());
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kPublished), 0);
  EXPECT_FALSE(report->AtomicityViolated());
  // Vertex 1 is the lowest live successor, so the takeover lands on the
  // first epoch it coordinates.
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_TRUE(HasPhase(*report, "coordinator_crash_at_prepare"));
  EXPECT_TRUE(HasPhase(*report, "epoch_1_takeover"));
}

TEST(QuorumCommitTest, CoordinatorCrashAtCommitResumesPreCommittedVerdict) {
  SwapWorld world(RingWorldOptions(4));
  world.StartMining();
  QuorumConfig config = ShortPatience();
  config.coordinator_crash.phase = CoordinatorCrashPhase::kAtCommit;
  QuorumCommitEngine engine(world.env(), RingGraph(&world, 4),
                            world.all_participants(), config);
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->finished);
  EXPECT_TRUE(report->committed);
  EXPECT_FALSE(report->AtomicityViolated());
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kPublished), 0);
  EXPECT_GE(engine.epoch(), 1u);
  // The crash lands after the pre-commit round replicated the verdict, so
  // the recovering coordinator RESUMES it rather than choosing afresh.
  const int precommit = PhaseIndex(*report, "precommit_round_started");
  const int crash = PhaseIndex(*report, "coordinator_crash_at_commit");
  const int takeover = PhaseIndex(*report, "epoch_1_takeover");
  const int decided = PhaseIndex(*report, "quorum_commit_decided");
  ASSERT_GE(precommit, 0);
  ASSERT_GE(crash, 0);
  ASSERT_GE(takeover, 0);
  ASSERT_GE(decided, 0);
  EXPECT_LT(precommit, crash);
  EXPECT_LT(crash, takeover);
  EXPECT_LT(takeover, decided);
}

TEST(QuorumCommitTest, LateRecoveryBeforeTakeoverKeepsEpochZero) {
  SwapWorld world(RingWorldOptions(4));
  world.StartMining();
  QuorumConfig config = ShortPatience();
  config.coordinator_crash.phase = CoordinatorCrashPhase::kAtPrepare;
  config.coordinator_crash.recover_after = Seconds(1);
  config.takeover_timeout = Seconds(30);  // Recovery wins the race.
  QuorumCommitEngine engine(world.env(), RingGraph(&world, 4),
                            world.all_participants(), config);
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->finished);
  EXPECT_TRUE(report->committed);
  EXPECT_EQ(engine.epoch(), 0u);
  EXPECT_TRUE(HasPhase(*report, "coordinator_crash_at_prepare"));
  EXPECT_FALSE(HasPhase(*report, "epoch_1_takeover"));
}

// Majority quorums tolerate a crash only for n >= 3: with n = 2 the lone
// survivor is below quorum and must block (the correct, safe behavior).
TEST(QuorumCommitTest, TwoPartyLoneSurvivorBlocksBelowQuorum) {
  SwapWorld world(RingWorldOptions(2));
  world.StartMining();
  QuorumConfig config = ShortPatience();
  config.coordinator_crash.phase = CoordinatorCrashPhase::kAtPrepare;
  QuorumCommitEngine engine(world.env(), RingGraph(&world, 2),
                            world.all_participants(), config);
  auto report = engine.Run(Seconds(45));
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->finished);
  EXPECT_FALSE(engine.decision_tag().has_value());
  EXPECT_EQ(report->CountOutcome(EdgeOutcome::kPublished), 2);
  EXPECT_FALSE(report->AtomicityViolated());
}

TEST(QuorumCommitTest, RejectsAnEdgeOnAChainTheWorldLacks) {
  // Chain 7 passes the graph's own checks, but this world has two chains:
  // Start() must turn the graph away before a step reads the chain.
  SwapWorld world(RingWorldOptions(2));
  graph::Ac2tGraph graph = graph::MakeTwoPartySwap(
      world.participant(0)->pk(), world.participant(1)->pk(),
      world.asset_chain(0), 300, /*chain_ba=*/7, 200,
      world.env()->sim()->Now());
  QuorumCommitEngine engine(world.env(), graph, world.all_participants(),
                            ShortPatience());
  EXPECT_EQ(engine.Run(kDeadline).status().code(),
            StatusCode::kInvalidArgument);
}

// ---- crash-at-each-phase across every topology family ---------------------

TEST(QuorumTopologySweep, CoordinatorCrashCommitsOnEveryFamily) {
  runner::SweepGridConfig grid;
  grid.deadline = Minutes(10);
  for (runner::Topology topology :
       {runner::Topology::kRing, runner::Topology::kPath,
        runner::Topology::kStar, runner::Topology::kComplete,
        runner::Topology::kRandomFeasible, runner::Topology::kFig7aCyclic,
        runner::Topology::kFig7bDisconnected}) {
    for (runner::FailureMode mode :
         {runner::FailureMode::kCrashCoordinatorAtPrepare,
          runner::FailureMode::kCrashCoordinatorAtCommit}) {
      runner::SweepPoint point;
      point.protocol = runner::Protocol::kQuorum;
      point.topology = topology;
      point.size = 4;
      point.failure = mode;
      point.seed = 1101;
      auto report = runner::RunSwapReport(grid, point);
      const std::string cell = std::string(runner::TopologyName(topology)) +
                               "/" + runner::FailureModeName(mode);
      ASSERT_TRUE(report.ok()) << cell << ": " << report.status();
      EXPECT_TRUE(report->finished) << cell;
      EXPECT_TRUE(report->committed) << cell;
      EXPECT_FALSE(report->AtomicityViolated()) << cell;
      EXPECT_EQ(report->CountOutcome(EdgeOutcome::kPublished), 0) << cell;
      EXPECT_TRUE(HasPhase(
          *report, mode == runner::FailureMode::kCrashCoordinatorAtPrepare
                       ? "coordinator_crash_at_prepare"
                       : "coordinator_crash_at_commit"))
          << cell;
    }
  }
}

// ---- seed-replay determinism ----------------------------------------------

TEST(QuorumCommitTest, CrashScheduleReplaysBitForBit) {
  runner::SweepGridConfig grid;
  grid.deadline = Minutes(10);
  runner::SweepPoint point;
  point.protocol = runner::Protocol::kQuorum;
  point.topology = runner::Topology::kRing;
  point.size = 4;
  point.failure = runner::FailureMode::kCrashCoordinatorAtCommit;
  point.seed = 2024;
  const std::string first =
      runner::OutcomeToJson(runner::RunSwapPoint(grid, point)).Serialize();
  const std::string second =
      runner::OutcomeToJson(runner::RunSwapPoint(grid, point)).Serialize();
  EXPECT_EQ(first, second);
}

// ---- workload-driven end-to-end traffic -----------------------------------

chain::Transaction FakeGenesis(std::vector<chain::TxOutput> allocations,
                               chain::ChainId id) {
  chain::MutableTransaction tx;
  tx.type = chain::TxType::kCoinbase;
  tx.chain_id = id;
  tx.outputs = std::move(allocations);
  tx.nonce = 0;
  return chain::Transaction(std::move(tx));
}

// The open-world generator supplies the swap schedule (chain pairs in
// arrival order); each record is realized as a two-party quorum swap
// between scenario participants. The middle swap's coordinator crashes at
// prepare and recovers — with n = 2 no takeover is possible, so the run
// exercises the late-recovery path under generated traffic.
TEST(QuorumWorkloadE2E, GeneratedSwapTrafficCompletesWithMidRunCrash) {
  sim::WorkloadConfig wcfg;
  wcfg.chains = 2;
  wcfg.arrivals_per_sec = 2.0;
  sim::WorkloadGenerator gen(wcfg, /*seed=*/77);
  for (size_t c = 0; c < wcfg.chains; ++c) {
    gen.BindChain(c, static_cast<chain::ChainId>(c),
                  FakeGenesis(gen.GenesisAllocations(c),
                              static_cast<chain::ChainId>(c)));
  }
  sim::WorkloadBatch batch = gen.NextBatch(Seconds(5));
  ASSERT_GE(batch.swaps.size(), 3u);

  SwapWorldOptions options;
  options.participants = 3;
  options.asset_chains = 2;
  options.witness_chain = false;
  options.seed = 4242;
  SwapWorld world(options);
  world.StartMining();

  // Engines stay alive until the end: a completed engine's in-flight
  // messages may still execute while a later swap pumps the simulation.
  std::vector<std::unique_ptr<QuorumCommitEngine>> engines;
  for (size_t i = 0; i < 3; ++i) {
    const sim::SwapRecord& record = batch.swaps[i];
    Participant* a = world.participant(static_cast<int>(i % 3));
    Participant* b = world.participant(static_cast<int>((i + 1) % 3));
    graph::Ac2tGraph graph = graph::MakeTwoPartySwap(
        a->pk(), b->pk(),
        world.asset_chain(static_cast<int>(record.chain_a)), 120,
        world.asset_chain(static_cast<int>(record.chain_b)), 80,
        world.env()->sim()->Now());
    QuorumConfig config = ShortPatience();
    if (i == 1) {
      config.coordinator_crash.phase = CoordinatorCrashPhase::kAtPrepare;
      config.coordinator_crash.recover_after = Seconds(6);
      config.takeover_timeout = Seconds(60);
    }
    engines.push_back(std::make_unique<QuorumCommitEngine>(
        world.env(), std::move(graph), std::vector<Participant*>{a, b},
        config));
    auto report = engines.back()->Run(world.env()->sim()->Now() + Minutes(5));
    ASSERT_TRUE(report.ok()) << "swap " << i << ": " << report.status();
    EXPECT_TRUE(report->finished) << "swap " << i;
    EXPECT_TRUE(report->committed) << "swap " << i;
    EXPECT_FALSE(report->AtomicityViolated()) << "swap " << i;
    if (i == 1) {
      EXPECT_TRUE(HasPhase(*report, "coordinator_crash_at_prepare"));
    }
  }
}

}  // namespace
}  // namespace ac3::protocols
