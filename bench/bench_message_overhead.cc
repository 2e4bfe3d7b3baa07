// The message-overhead study — per-protocol wire-message cost and loss
// recovery over the typed proto::Message layer.
//
// Grid: every protocol × {fault-free, 10% message loss, 25% message
// duplication} × seeds, on the 4-party ring. Two properties are pinned:
//
//  * Cost (fault-free): each engine's per-swap protocol message count
//    must EQUAL its hand-derived closed form. Herlihy and AC3WN exchange
//    no off-chain protocol messages (their commitment is purely
//    on-chain): 0. AC3TW performs exactly two request/reply exchanges
//    with Trent (register/ack, secret-request/decision): 4. QuorumCommit
//    runs one pre-commit round — (n-1) pre-commits + (n-1) acks = 2(n-1).
//    No decision messages flow fault-free: the decision broadcast shares
//    the coordinator's broadcast pacer with the pre-commit round, and by
//    the time the pacer reopens (one resubmit interval later) the
//    coordinator — the only party that needs the signed decision to
//    settle — has already driven every edge on-chain. Counts are
//    deterministic because every exchange's round trip (<= 120 ms at the
//    world's latency model) is far below the resubmit interval, so no
//    fault-free retries fire.
//
//  * Recovery (lossy/duplicated): with 10% of all typed messages dropped
//    (protocol exchanges AND transaction gossip) or 25% duplicated,
//    every cell must still reach an atomic verdict with nothing stranded
//    — resend pacing recovers lost exchanges, seq fencing and mempool
//    tx-id dedup neutralize duplicates.
//
// The bench is self-checking: it exits nonzero unless both properties
// hold AND a single-threaded re-run of the grid is bit-for-bit identical
// to the pooled run. Published as BENCH_message_overhead.json; CI holds
// smoke runs to its worlds/sec floor
// (`ac3_study message_overhead --smoke --baseline .`).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/study.h"
#include "src/runner/sweep_runner.h"

namespace ac3::bench {

StudyRun MessageOverhead(const Options& context) {
  runner::SweepGridConfig grid;
  grid.protocols = {runner::Protocol::kHerlihy, runner::Protocol::kAc3tw,
                    runner::Protocol::kAc3wn, runner::Protocol::kQuorum};
  grid.topologies = {runner::Topology::kRing};
  grid.sizes = {4};
  grid.failures = {runner::FailureMode::kNone,
                   runner::FailureMode::kDropMessages,
                   runner::FailureMode::kDuplicateMessages};
  grid.seeds = {501, 502, 503};
  // Lossy cells recover on 800 ms resend heartbeats; 90 s dwarfs every
  // retry chain while keeping the study cheap.
  grid.deadline = Seconds(90);
  if (context.smoke) {
    grid.seeds = {501};
  }
  const double delta_ms = bench::BeginStudy(
      context, &grid,
      "Message-overhead study — per-protocol wire messages (closed-form\n"
      "fault-free counts) and verdict recovery under loss/duplication");

  // Hand-derived fault-free protocol message counts (see the file
  // comment); n is the ring size.
  const int n = grid.sizes.front();
  auto closed_form = [n](runner::Protocol protocol) -> int64_t {
    switch (protocol) {
      case runner::Protocol::kHerlihy:
        return 0;
      case runner::Protocol::kAc3tw:
        return 4;
      case runner::Protocol::kAc3wn:
        return 0;
      case runner::Protocol::kQuorum:
        return 2 * static_cast<int64_t>(n - 1);
    }
    return -1;
  };

  const bench::GridRun run = bench::RunStudyGrid(context, grid);

  std::printf("%9s | %-20s | %8s | %8s | %8s | %10s | %10s\n", "protocol",
              "failure", "finished", "commit", "abort", "msgs/swap",
              "bytes/swap");
  benchutil::PrintRule(90);

  bool counts_match = true;
  bool loss_recovered = true;
  bool dup_recovered = true;
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
      int64_t msgs = 0;
      int64_t bytes = 0;
      bool cell_counts_ok = true;
      for (const runner::RunOutcome& outcome : mine) {
        msgs += outcome.messages_sent;
        bytes += outcome.message_bytes_sent;
        if (failure == runner::FailureMode::kNone &&
            outcome.messages_sent != closed_form(protocol)) {
          cell_counts_ok = false;
          counts_match = false;
        }
        if (failure != runner::FailureMode::kNone) {
          const bool recovered = outcome.finished &&
                                 (outcome.committed || outcome.aborted) &&
                                 !outcome.atomicity_violated &&
                                 outcome.edges_stranded == 0;
          if (!recovered) {
            if (failure == runner::FailureMode::kDropMessages) {
              loss_recovered = false;
            } else {
              dup_recovered = false;
            }
          }
        }
      }
      const runner::SweepAggregate agg = runner::Aggregate(mine, delta_ms);
      violations += agg.atomicity_violations;
      const double per_swap =
          static_cast<double>(msgs) / static_cast<double>(mine.size());
      const double bytes_per_swap =
          static_cast<double>(bytes) / static_cast<double>(mine.size());
      std::printf("%9s | %-20s | %8d | %8d | %8d | %10.1f | %10.1f\n",
                  runner::ProtocolName(protocol),
                  runner::FailureModeName(failure), agg.finished,
                  agg.committed, agg.aborted, per_swap, bytes_per_swap);
      runner::Json row = runner::Json::Object();
      row.Set("protocol", runner::ProtocolName(protocol));
      row.Set("failure", runner::FailureModeName(failure));
      row.Set("messages_per_swap", per_swap);
      row.Set("bytes_per_swap", bytes_per_swap);
      if (failure == runner::FailureMode::kNone) {
        row.Set("closed_form", closed_form(protocol));
        row.Set("counts_match", cell_counts_ok);
      }
      row.Set("aggregate", runner::AggregateToJson(agg));
      rows.Push(std::move(row));
    }
    benchutil::PrintRule(90);
  }

  // Determinism contract: the same grid on one thread must be bit-for-bit
  // identical to the pooled run, message counters included.
  const bool thread_invariant = bench::ThreadInvariant(grid, run.outcomes);

  const bool overhead_reproduced = counts_match && loss_recovered &&
                                   dup_recovered && violations == 0;

  runner::Json results = runner::Json::Object();
  results.Set("delta_ms", delta_ms);
  results.Set("size", static_cast<int64_t>(grid.sizes.front()));
  results.Set("seeds_per_cell", static_cast<int64_t>(grid.seeds.size()));
  results.Set("message_drop_prob", grid.message_drop_prob);
  results.Set("message_duplicate_prob", grid.message_duplicate_prob);
  results.Set("atomicity_violations", violations);
  results.Set("counts_match", counts_match);
  results.Set("loss_recovered", loss_recovered);
  results.Set("dup_recovered", dup_recovered);
  results.Set("overhead_reproduced", overhead_reproduced);
  results.Set("thread_invariant", thread_invariant);
  results.Set("rows", std::move(rows));
  results.Set("outcomes", bench::OutcomesJson(run.outcomes, true));

  std::printf(
      "\nshape check: fault-free message counts equal the closed forms\n"
      "(herlihy=0, ac3tw=4, ac3wn=0, quorum=2(n-1)); every lossy cell\n"
      "reaches an atomic verdict via resends.\n"
      "counts_match=%s, loss_recovered=%s, dup_recovered=%s,\n"
      "violations=%d, thread_invariant=%s.\n",
      counts_match ? "true" : "false", loss_recovered ? "true" : "false",
      dup_recovered ? "true" : "false", violations,
      thread_invariant ? "true" : "false");
  return {std::move(results), run.WallJson(),
          overhead_reproduced && thread_invariant};
}

}  // namespace ac3::bench
