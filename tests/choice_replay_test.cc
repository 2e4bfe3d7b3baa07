// Schedule choices, recorded and replayed: every value a swap world leaves
// to chance (jitter, duplication, loss, block interval, winning miner)
// passes through the simulation's one Chooser, so a recording of one run's
// choices, handed back in order, reproduces the run, and changing one of
// them changes it. The doubles are testutil::RecordingChooser and
// testutil::ListChooser.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/protocols/ac3wn_swap.h"
#include "src/protocols/herlihy_swap.h"
#include "src/protocols/quorum_commit.h"
#include "src/runner/sweep_runner.h"
#include "tests/test_util.h"

namespace ac3 {
namespace {

using runner::FailureMode;
using runner::Protocol;
using runner::SweepPoint;
using runner::Topology;
using sim::ChoiceSite;
using testutil::Choice;
using testutil::ListChooser;
using testutil::RecordingChooser;

/// One world to record and replay.
struct Cell {
  SweepPoint point;
  /// Arms duplication beside the point's message loss: a lossy world that
  /// asks all five sites. No sweep cell arms both.
  bool lossy = false;
};

// Seeds where the failure strikes while the swap runs: the participant
// failures start at 1Δ, after most three-party rings have finished.
const Cell kQuorumDrop{{Protocol::kQuorum, Topology::kRing, 3,
                        FailureMode::kDropMessages, 3},
                       /*lossy=*/false};
const Cell kAc3wnDuplicate{{Protocol::kAc3wn, Topology::kRing, 3,
                            FailureMode::kDuplicateMessages, 4},
                           /*lossy=*/false};
const Cell kHerlihyCrash{{Protocol::kHerlihy, Topology::kRing, 4,
                          FailureMode::kCrashParticipant, 23},
                         /*lossy=*/false};
const Cell kHerlihyPartition{{Protocol::kHerlihy, Topology::kRing, 4,
                              FailureMode::kPartitionParticipant, 23},
                             /*lossy=*/false};
const Cell kQuorumTakeover{{Protocol::kQuorum, Topology::kRing, 3,
                            FailureMode::kCrashCoordinatorAtCommit, 1},
                           /*lossy=*/false};
const Cell kQuorumLossy{{Protocol::kQuorum, Topology::kRing, 3,
                         FailureMode::kDropMessages, 7},
                        /*lossy=*/true};

/// What a run leaves behind, compared across choosers.
struct RunImage {
  /// OutcomeToJson of the run, events_executed() included (sim_events).
  std::string outcome;
  std::vector<crypto::Hash256> heads;   ///< Each chain's head, by chain id.
  std::vector<uint64_t> block_counts;   ///< Each chain's stored blocks.

  bool operator==(const RunImage&) const = default;
};

/// Runs `cell` as runner::RunSwapPoint runs its point, with `chooser`
/// installed (nullptr: the default) before mining starts and before any
/// send.
RunImage RunCell(const Cell& cell, sim::Chooser* chooser) {
  const runner::SweepGridConfig config;
  const SweepPoint& point = cell.point;
  core::ScenarioOptions options;
  options.participants = point.size;
  options.asset_chains = std::min(point.size, config.max_asset_chains);
  options.funding = config.funding;
  options.seed = point.seed;
  options.witness_chain = point.protocol == Protocol::kAc3wn;
  core::ScenarioWorld world(options);
  core::Environment* env = world.env();
  env->sim()->set_chooser(chooser);

  const sim::NodeId victim = world.participant(1)->node();
  const auto onset = static_cast<TimePoint>(config.failure_onset_deltas *
                                            static_cast<double>(config.delta));
  const auto length = static_cast<Duration>(
      config.failure_length_deltas * static_cast<double>(config.delta));
  sim::MessageFaults faults;
  protocols::VerdictConfig shared;
  switch (point.failure) {
    case FailureMode::kCrashParticipant:
      env->failures()->CrashFor(victim, onset, length);
      break;
    case FailureMode::kPartitionParticipant:
      env->failures()->SchedulePartition(
          sim::PartitionWindow{victim, onset, onset + length});
      break;
    case FailureMode::kDropMessages:
      faults.drop_prob = config.message_drop_prob;
      break;
    case FailureMode::kDuplicateMessages:
      faults.duplicate_prob = config.message_duplicate_prob;
      break;
    case FailureMode::kCrashCoordinatorAtCommit:  // It never recovers.
      shared.coordinator_crash.phase =
          protocols::CoordinatorCrashPhase::kAtCommit;
      break;
    default:
      ADD_FAILURE() << "no cell injects " << FailureModeName(point.failure);
  }
  if (cell.lossy) faults.duplicate_prob = config.message_duplicate_prob;
  env->network()->set_message_faults(faults);

  world.StartMining();
  const graph::Ac2tGraph graph = runner::TopologyOverWorld(
      &world, point.topology, point.size, config.edge_amount, point.seed);
  const TimePoint deadline = env->sim()->Now() + config.deadline;
  Result<protocols::SwapReport> report = Status::Internal("no engine");
  switch (point.protocol) {
    case Protocol::kHerlihy: {
      protocols::HerlihySwapEngine engine(env, graph, world.all_participants(),
                                          shared);
      report = engine.Run(deadline);
      break;
    }
    case Protocol::kAc3wn: {
      protocols::Ac3wnSwapEngine engine(env, graph, world.all_participants(),
                                        world.witness_chain(),
                                        protocols::Ac3wnConfig{shared});
      report = engine.Run(deadline);
      break;
    }
    case Protocol::kQuorum: {
      protocols::QuorumCommitEngine engine(env, graph, world.all_participants(),
                                           protocols::QuorumConfig{shared});
      report = engine.Run(deadline);
      break;
    }
    case Protocol::kAc3tw:
      ADD_FAILURE() << "no cell runs AC3TW";
  }

  RunImage image;
  if (report.ok()) {
    runner::RunOutcome outcome = runner::ReduceReport(point, *report);
    outcome.sim_events = static_cast<int64_t>(env->sim()->events_executed());
    image.outcome = runner::OutcomeToJson(outcome).Serialize();
  } else {
    image.outcome = report.status().ToString();
  }
  for (size_t c = 0; c < env->chain_count(); ++c) {
    const chain::Blockchain* chain =
        env->blockchain(static_cast<chain::ChainId>(c));
    image.heads.push_back(chain->head()->hash);
    image.block_counts.push_back(chain->block_count());
  }
  return image;
}

std::string Describe(const Cell& cell) {
  return std::string(runner::ProtocolName(cell.point.protocol)) + " " +
         runner::FailureModeName(cell.point.failure) + " n=" +
         std::to_string(cell.point.size) + " seed " +
         std::to_string(cell.point.seed) + (cell.lossy ? " +duplicate" : "");
}

/// How many times each of the five sites asked, in ChoiceSite order.
std::array<size_t, 5> CountBySite(const std::vector<Choice>& choices) {
  std::array<size_t, 5> counts{};
  for (const Choice& choice : choices) {
    ++counts[static_cast<size_t>(choice.site)];
  }
  return counts;
}

TEST(ChoiceReplayTest, RecordingIsTransparentAndReplayReproducesTheRun) {
  for (const Cell& cell : {kQuorumDrop, kAc3wnDuplicate, kHerlihyCrash,
                           kHerlihyPartition, kQuorumTakeover, kQuorumLossy}) {
    SCOPED_TRACE(Describe(cell));
    const RunImage plain = RunCell(cell, nullptr);
    if (!cell.lossy) {
      // The restated cell is the sweep's own.
      runner::RunOutcome swept =
          runner::RunSwapPoint(runner::SweepGridConfig{}, cell.point);
      EXPECT_EQ(plain.outcome, runner::OutcomeToJson(swept).Serialize());
    }

    RecordingChooser recorder;
    EXPECT_EQ(RunCell(cell, &recorder), plain);
    ASSERT_FALSE(recorder.choices().empty());

    ListChooser replay(recorder.choices());
    EXPECT_EQ(RunCell(cell, &replay), plain);
    EXPECT_EQ(replay.consumed(), recorder.choices().size());
  }
}

TEST(ChoiceReplayTest, LossyCellAsksEveryOneOfTheFiveSites) {
  RecordingChooser recorder;
  RunCell(kQuorumLossy, &recorder);
  const std::array<size_t, 5> counts = CountBySite(recorder.choices());
  for (size_t site = 0; site < counts.size(); ++site) {
    EXPECT_GT(counts[site], 0u) << "site " << site;
  }
}

TEST(ChoiceReplayTest, OnlyArmedFaultsAsk) {
  // The duplicate cell arms no loss, so it never asks the drop site; the
  // crash cell arms neither fault, so its sends ask only for jitter.
  RecordingChooser duplicate;
  RunCell(kAc3wnDuplicate, &duplicate);
  const std::array<size_t, 5> counts = CountBySite(duplicate.choices());
  EXPECT_GT(counts[static_cast<size_t>(ChoiceSite::kDuplicate)], 0u);
  EXPECT_EQ(counts[static_cast<size_t>(ChoiceSite::kDrop)], 0u);

  RecordingChooser crash;
  RunCell(kHerlihyCrash, &crash);
  const std::array<size_t, 5> crash_counts = CountBySite(crash.choices());
  EXPECT_GT(crash_counts[static_cast<size_t>(ChoiceSite::kJitter)], 0u);
  EXPECT_EQ(crash_counts[static_cast<size_t>(ChoiceSite::kDuplicate)], 0u);
  EXPECT_EQ(crash_counts[static_cast<size_t>(ChoiceSite::kDrop)], 0u);
}

TEST(ChoiceReplayTest, AListOneChoiceShortThrowsAtTheMissingChoice) {
  RecordingChooser recorder;
  RunCell(kQuorumDrop, &recorder);
  std::vector<Choice> list = recorder.choices();
  list.pop_back();
  ListChooser replay(list);
  try {
    RunCell(kQuorumDrop, &replay);
    ADD_FAILURE() << "the replay ran past the end of its list";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("ran out"), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(replay.consumed(), list.size());
}

TEST(ChoiceReplayTest, OneChangedMinerChangesTheHeads) {
  for (const Cell& cell : {kQuorumDrop, kHerlihyCrash}) {
    SCOPED_TRACE(Describe(cell));
    RecordingChooser recorder;
    const RunImage plain = RunCell(cell, &recorder);
    std::vector<Choice> list = recorder.choices();
    auto last_miner =
        std::find_if(list.rbegin(), list.rend(), [](const Choice& choice) {
          return choice.site == ChoiceSite::kMiner;
        });
    ASSERT_NE(last_miner, list.rend());
    const auto miners =
        static_cast<uint64_t>(core::ScenarioOptions{}.miner_count);
    last_miner->value = (last_miner->value + 1) % miners;

    ListChooser replay(list);
    const RunImage changed = RunCell(cell, &replay);
    EXPECT_EQ(replay.consumed(), list.size());
    EXPECT_NE(changed.heads, plain.heads);
    EXPECT_EQ(changed.block_counts, plain.block_counts);
  }
}

}  // namespace
}  // namespace ac3
