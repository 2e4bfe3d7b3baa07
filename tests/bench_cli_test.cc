// The study CLI (bench::Options): one table-driven parser behind
// ac3_study. These tests pin the contract the studies and CI rely on —
// the study name and shared flags fill the BenchContext the envelope
// writer consumes, axis lists go through the same name tables as the
// JSON output, and unknown flags exit non-zero. The grid-study helpers
// the sweep studies share (selection, the outcomes array, the 1-thread
// determinism witness) are pinned here too; StudyMain itself is tested in
// study_test.cc.

#include <gtest/gtest.h>

#include <vector>

#include "bench/bench_util.h"

namespace ac3 {
namespace {

using bench::Options;

TEST(BenchCliTest, ParsesSharedFlags) {
  const char* argv[] = {"bench",  "--smoke",    "commit_study",
                        "--out",  "/tmp/x",     "--threads",
                        "3",      "--baseline", "/tmp/base"};
  Options options = Options::Parse(9, const_cast<char**>(argv));
  EXPECT_EQ(options.study, "commit_study");
  EXPECT_TRUE(options.smoke);
  EXPECT_EQ(options.out_dir, "/tmp/x");
  EXPECT_EQ(options.threads, 3);
  EXPECT_EQ(options.baseline_dir, "/tmp/base");
  EXPECT_FALSE(options.list);
  EXPECT_FALSE(options.exit_early);
}

TEST(BenchCliTest, DefaultsWhenNoFlags) {
  const char* argv[] = {"bench"};
  Options options = Options::Parse(1, const_cast<char**>(argv));
  EXPECT_FALSE(options.smoke);
  EXPECT_EQ(options.out_dir, ".");
  EXPECT_EQ(options.threads, 0);
  EXPECT_TRUE(options.study.empty());
  EXPECT_TRUE(options.baseline_dir.empty());
  EXPECT_FALSE(options.list);
  EXPECT_FALSE(options.exit_early);
}

TEST(BenchCliTest, UnknownFlagRequestsNonZeroExit) {
  const char* argv[] = {"bench", "--bogus"};
  Options options = Options::Parse(2, const_cast<char**>(argv));
  EXPECT_TRUE(options.exit_early);
  EXPECT_EQ(options.exit_code, 1);
}

TEST(BenchCliTest, MissingValueRequestsNonZeroExit) {
  const char* argv[] = {"bench", "--out"};
  Options options = Options::Parse(2, const_cast<char**>(argv));
  EXPECT_TRUE(options.exit_early);
  EXPECT_EQ(options.exit_code, 1);
}

TEST(BenchCliTest, HelpExitsZero) {
  const char* argv[] = {"bench", "--help"};
  Options options = Options::Parse(2, const_cast<char**>(argv));
  EXPECT_TRUE(options.exit_early);
  EXPECT_EQ(options.exit_code, 0);
}

TEST(BenchCliTest, ParsesAxisListsThroughTheSharedTables) {
  const char* argv[] = {"bench", "--protocols", "herlihy,ac3wn",
                        "--topologies", "ring,complete", "--failures",
                        "crash_participant"};
  Options options = Options::Parse(7, const_cast<char**>(argv));
  ASSERT_FALSE(options.exit_early);
  ASSERT_EQ(options.protocols.size(), 2u);
  EXPECT_EQ(options.protocols[1], runner::Protocol::kAc3wn);
  ASSERT_EQ(options.topologies.size(), 2u);
  EXPECT_EQ(options.topologies[1], runner::Topology::kComplete);
  ASSERT_EQ(options.failures.size(), 1u);
  EXPECT_EQ(options.failures[0], runner::FailureMode::kCrashParticipant);

  runner::SweepGridConfig grid;
  options.ApplyAxisOverrides(&grid);
  EXPECT_EQ(grid.topologies, options.topologies);
  EXPECT_EQ(grid.protocols, options.protocols);
  EXPECT_EQ(grid.failures, options.failures);
}

TEST(BenchCliTest, ParsesCoordinatorCrashFailureSpellings) {
  // The commit-study axis rows flow to the CLI through the shared name
  // tables — no bench-side registration needed.
  const char* argv[] = {"bench", "--failures",
                        "crash_coordinator_at_prepare,"
                        "crash_coordinator_at_commit",
                        "--protocols", "quorum"};
  Options options = Options::Parse(5, const_cast<char**>(argv));
  ASSERT_FALSE(options.exit_early);
  ASSERT_EQ(options.failures.size(), 2u);
  EXPECT_EQ(options.failures[0],
            runner::FailureMode::kCrashCoordinatorAtPrepare);
  EXPECT_EQ(options.failures[1],
            runner::FailureMode::kCrashCoordinatorAtCommit);
  ASSERT_EQ(options.protocols.size(), 1u);
  EXPECT_EQ(options.protocols[0], runner::Protocol::kQuorum);
}

TEST(BenchCliTest, ParsesMessageFaultFailureSpellings) {
  // The message-overhead study's fault axis rides the same shared tables;
  // these spellings are what CI smoke flags and committed BENCH files use.
  const char* argv[] = {"bench", "--failures",
                        "drop_messages,duplicate_messages"};
  Options options = Options::Parse(3, const_cast<char**>(argv));
  ASSERT_FALSE(options.exit_early);
  ASSERT_EQ(options.failures.size(), 2u);
  EXPECT_EQ(options.failures[0], runner::FailureMode::kDropMessages);
  EXPECT_EQ(options.failures[1], runner::FailureMode::kDuplicateMessages);
}

TEST(BenchCliTest, EmptyAxisOverridesKeepTheGridDefaults) {
  const char* argv[] = {"bench", "--smoke"};
  Options options = Options::Parse(2, const_cast<char**>(argv));
  runner::SweepGridConfig grid;
  grid.protocols = {runner::Protocol::kHerlihy};
  const auto before = grid.protocols;
  options.ApplyAxisOverrides(&grid);
  EXPECT_EQ(grid.protocols, before);
}

TEST(BenchCliTest, RejectsUnknownAxisNames) {
  const char* argv[] = {"bench", "--topologies", "ring,donut"};
  Options options = Options::Parse(3, const_cast<char**>(argv));
  EXPECT_TRUE(options.exit_early);
  EXPECT_EQ(options.exit_code, 1);
}

// ---- the grid-study helpers -----------------------------------------------

runner::RunOutcome Cell(runner::Protocol protocol, bool ok, bool committed) {
  runner::RunOutcome outcome;
  outcome.point.protocol = protocol;
  outcome.ok = ok;
  outcome.finished = committed;
  outcome.committed = committed;
  outcome.latency_ms = committed ? 1000 : -1;
  outcome.messages_sent = 6;
  outcome.message_bytes_sent = 300;
  return outcome;
}

TEST(GridStudyTest, SelectKeepsGridOrderAndAggregateWhereAggregatesIt) {
  const std::vector<runner::RunOutcome> outcomes = {
      Cell(runner::Protocol::kHerlihy, true, true),
      Cell(runner::Protocol::kAc3wn, true, false),
      Cell(runner::Protocol::kHerlihy, false, false),
      Cell(runner::Protocol::kHerlihy, true, true)};
  auto herlihy = [](const runner::RunOutcome& outcome) {
    return outcome.point.protocol == runner::Protocol::kHerlihy;
  };
  const std::vector<runner::RunOutcome> mine = bench::Select(outcomes, herlihy);
  ASSERT_EQ(mine.size(), 3u);
  EXPECT_TRUE(mine[0].ok);
  EXPECT_FALSE(mine[1].ok);
  EXPECT_TRUE(mine[2].ok);

  const runner::SweepAggregate agg =
      bench::AggregateWhere(outcomes, /*delta_ms=*/500, herlihy);
  EXPECT_EQ(runner::AggregateToJson(agg),
            runner::AggregateToJson(runner::Aggregate(mine, 500)));
  EXPECT_EQ(agg.runs, 3);
  EXPECT_EQ(agg.committed, 2);
  EXPECT_DOUBLE_EQ(agg.mean_latency_deltas, 2.0);
  EXPECT_EQ(bench::AggregateWhere(outcomes, 500,
                                  [](const runner::RunOutcome&) {
                                    return false;
                                  })
                .runs,
            0);
}

TEST(GridStudyTest, OutcomesJsonAddsMessageCountersOnlyToCellsThatRan) {
  const std::vector<runner::RunOutcome> outcomes = {
      Cell(runner::Protocol::kQuorum, true, true),
      Cell(runner::Protocol::kQuorum, false, false)};
  const runner::Json plain = bench::OutcomesJson(outcomes, false);
  ASSERT_EQ(plain.items().size(), 2u);
  for (const runner::Json& cell : plain.items()) {
    EXPECT_FALSE(cell.Has("messages_sent"));
    EXPECT_FALSE(cell.Has("message_bytes_sent"));
  }
  EXPECT_EQ(plain.at(0), runner::OutcomeToJson(outcomes[0]));

  const runner::Json counted = bench::OutcomesJson(outcomes, true);
  ASSERT_EQ(counted.items().size(), 2u);
  EXPECT_TRUE(counted.at(0).Has("messages_sent"));
  EXPECT_TRUE(counted.at(0).Has("message_bytes_sent"));
  EXPECT_FALSE(counted.at(1).Has("messages_sent"));
}

TEST(GridStudyTest, ThreadInvariantHoldsOnATinyGridAndSeesCounterDrift) {
  runner::SweepGridConfig grid;
  grid.protocols = {runner::Protocol::kAc3tw};
  grid.topologies = {runner::Topology::kRing};
  grid.sizes = {2};
  grid.failures = {runner::FailureMode::kNone};
  grid.seeds = {501, 502};
  std::vector<runner::RunOutcome> outcomes =
      runner::SweepRunner(2).RunGrid(grid);
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_TRUE(outcomes[1].ok);
  EXPECT_TRUE(bench::ThreadInvariant(grid, outcomes));
  // The counters OutcomeToJson omits are part of the witness.
  outcomes[1].messages_sent += 1;
  EXPECT_FALSE(bench::ThreadInvariant(grid, outcomes));
}

}  // namespace
}  // namespace ac3
