// The commit study — blocking vs nonblocking atomic commitment under a
// phase-precise coordinator crash (the classic 2PC blocking window; see
// src/protocols/quorum_commit.h for the protocol).
//
// Grid: every protocol × {fault-free, coordinator crash at prepare,
// coordinator crash at commit} × seeds, on the 4-party ring, with the
// coordinator never recovering (coordinator_recovery_deltas < 0). The
// separation the study must reproduce:
//
//  * Herlihy and AC3TW — single-coordinator protocols — either never
//    reach a verdict or strand locked funds in every coordinator-crash
//    cell (blocking).
//  * QuorumCommit reaches an atomic verdict with nothing stranded in
//    EVERY cell: the surviving majority takes over the crashed
//    coordinator's round (nonblocking).
//
// AC3WN rows ride along for context (its witness chain makes the decision
// durable, so a verdict is always reached, but assets addressed to the
// dead node itself can only be claimed by it). The bench is self-checking:
// it exits nonzero unless the separation reproduced AND a single-threaded
// re-run of the grid is bit-for-bit identical to the pooled run.
//
// Published as BENCH_commit_study.json; CI holds smoke runs to its
// worlds/sec floor (`ac3_study commit_study --smoke --baseline .`).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/study.h"
#include "src/runner/sweep_runner.h"

namespace ac3::bench {

StudyRun CommitStudy(const Options& context) {
  runner::SweepGridConfig grid;
  grid.protocols = {runner::Protocol::kHerlihy, runner::Protocol::kAc3tw,
                    runner::Protocol::kAc3wn, runner::Protocol::kQuorum};
  grid.topologies = {runner::Topology::kRing};
  grid.sizes = {4};
  grid.failures = {runner::FailureMode::kNone,
                   runner::FailureMode::kCrashCoordinatorAtPrepare,
                   runner::FailureMode::kCrashCoordinatorAtCommit};
  grid.seeds = {401, 402, 403};
  // Blocked cells run to the deadline by design; keep it tight enough that
  // the study stays cheap while dwarfing every commit path's latency.
  grid.deadline = Seconds(90);
  grid.coordinator_recovery_deltas = -1.0;  // The coordinator stays dead.
  if (context.smoke) {
    grid.seeds = {401};
  }
  const double delta_ms = bench::BeginStudy(
      context, &grid,
      "Commit study — coordinator crash between prepare and commit:\n"
      "2PC-style engines block, the quorum-commit engine takes over");
  const bench::GridRun run = bench::RunStudyGrid(context, grid);

  std::printf("%9s | %-28s | %8s | %8s | %8s | %8s | %10s\n", "protocol",
              "failure", "finished", "commit", "abort", "stranded",
              "mean (d^)");
  benchutil::PrintRule(96);

  // Acceptance: every blocking-baseline coordinator-crash cell stalls or
  // strands; every quorum cell reaches an atomic verdict, nothing
  // stranded.
  bool blocking_reproduced = true;
  bool quorum_atomic = true;
  int violations = 0;
  runner::Json rows = runner::Json::Array();
  for (runner::Protocol protocol : grid.protocols) {
    for (runner::FailureMode failure : grid.failures) {
      const std::vector<runner::RunOutcome> mine = bench::Select(
          run.outcomes, [&](const runner::RunOutcome& outcome) {
            return outcome.point.protocol == protocol &&
                   outcome.point.failure == failure;
          });
      if (mine.empty()) continue;
      int stranded = 0;
      for (const runner::RunOutcome& outcome : mine) {
        stranded += outcome.edges_stranded;

        const bool coordinator_crash =
            failure != runner::FailureMode::kNone;
        const bool blocked = !outcome.finished || outcome.edges_stranded > 0;
        if (coordinator_crash &&
            (protocol == runner::Protocol::kHerlihy ||
             protocol == runner::Protocol::kAc3tw) &&
            !blocked) {
          blocking_reproduced = false;
        }
        if (protocol == runner::Protocol::kQuorum) {
          const bool atomic_verdict =
              outcome.finished && (outcome.committed || outcome.aborted) &&
              !outcome.atomicity_violated && outcome.edges_stranded == 0;
          if (!atomic_verdict) quorum_atomic = false;
        }
      }
      const runner::SweepAggregate agg = runner::Aggregate(mine, delta_ms);
      violations += agg.atomicity_violations;
      std::printf("%9s | %-28s | %8d | %8d | %8d | %8d | %10.1f\n",
                  runner::ProtocolName(protocol),
                  runner::FailureModeName(failure), agg.finished,
                  agg.committed, agg.aborted, stranded,
                  agg.commit_latency.samples > 0 ? agg.mean_latency_deltas
                                                 : -1.0);
      runner::Json row = runner::Json::Object();
      row.Set("protocol", runner::ProtocolName(protocol));
      row.Set("failure", runner::FailureModeName(failure));
      row.Set("edges_stranded", stranded);
      row.Set("aggregate", runner::AggregateToJson(agg));
      rows.Push(std::move(row));
    }
    benchutil::PrintRule(96);
  }

  // Determinism contract: the same grid on one thread must be bit-for-bit
  // identical to the pooled run.
  const bool thread_invariant = bench::ThreadInvariant(grid, run.outcomes);

  const bool separation_reproduced =
      blocking_reproduced && quorum_atomic && violations == 0;

  runner::Json results = runner::Json::Object();
  results.Set("delta_ms", delta_ms);
  results.Set("size", static_cast<int64_t>(grid.sizes.front()));
  results.Set("seeds_per_cell", static_cast<int64_t>(grid.seeds.size()));
  results.Set("coordinator_recovery_deltas",
              grid.coordinator_recovery_deltas);
  results.Set("atomicity_violations", violations);
  results.Set("blocking_reproduced", blocking_reproduced);
  results.Set("quorum_atomic", quorum_atomic);
  results.Set("separation_reproduced", separation_reproduced);
  results.Set("thread_invariant", thread_invariant);
  results.Set("rows", std::move(rows));
  results.Set("outcomes", bench::OutcomesJson(run.outcomes, false));

  std::printf(
      "\nshape check: Herlihy/AC3TW stall or strand in every coordinator-\n"
      "crash cell while QuorumCommit reaches an atomic verdict everywhere.\n"
      "blocking_reproduced=%s, quorum_atomic=%s, violations=%d,\n"
      "thread_invariant=%s.\n",
      blocking_reproduced ? "true" : "false",
      quorum_atomic ? "true" : "false", violations,
      thread_invariant ? "true" : "false");
  return {std::move(results), run.WallJson(),
          separation_reproduced && thread_invariant};
}

}  // namespace ac3::bench
