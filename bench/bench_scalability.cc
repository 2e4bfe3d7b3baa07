// Section 5.2 — "the atomicity coordination of AC2Ts is embarrassingly
// parallel; different witness networks can be used to coordinate different
// AC2Ts."
//
// The harness runs a fixed batch of concurrent two-party AC2Ts over shared
// asset chains while varying the number of witness networks the swaps are
// spread across. The witness chains are deliberately capacity-starved
// (1 transaction per slow block) so a single witness network visibly
// queues SCw deployments and state changes.
//
// Ported onto the SweepRunner substrate: each (witness-count) batch world
// is one independent deterministic task on the worker pool, each swap's
// SwapReport is reduced to a RunOutcome, and per-batch aggregates
// (mean/p50/p99 latency in Δs, commit counts, throughput) are published as
// BENCH_scalability.json; the printed table is a thin view.
//
// Expected shape: completion time falls (and per-swap latency tightens) as
// witness networks are added, while the asset chains — the real
// bottleneck per Section 5.2 — stay the same.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/study.h"
#include "src/protocols/ac3wn_swap.h"
#include "src/runner/sweep_runner.h"

namespace ac3 {
namespace {

constexpr TimePoint kDeadline = Minutes(60);

struct BatchResult {
  int witness_networks = 0;
  int swaps = 0;
  double makespan_ms = 0;  ///< Start of batch to last swap completion.
  std::vector<runner::RunOutcome> outcomes;
};

BatchResult RunBatch(int witness_networks, int swaps, uint64_t seed) {
  core::ScenarioOptions options;
  options.participants = 2 * swaps;
  options.asset_chains = 2;
  options.witness_chain = false;
  options.funding = 5000;
  options.seed = seed;
  core::ScenarioWorld world(options);

  // Capacity-starved witness chains (one transaction per slow block): the
  // coordination bottleneck when all swaps share one.
  std::vector<chain::ChainId> witnesses;
  for (int w = 0; w < witness_networks; ++w) {
    chain::ChainParams params = chain::TestWitnessParams();
    params.name = "Witness" + std::to_string(w);
    params.max_block_txs = 1;
    params.block_interval = Milliseconds(300);
    std::vector<chain::TxOutput> funding;
    for (auto* p : world.all_participants()) {
      funding.push_back(chain::TxOutput{5000, p->pk()});
    }
    chain::MiningConfig mining;
    mining.miner_count = 3;
    mining.max_propagation_delay = Milliseconds(5);
    witnesses.push_back(world.env()->AddChain(params, funding, mining));
  }
  world.StartMining();

  protocols::Ac3wnConfig config;
  config.publish_patience = Seconds(120);

  BatchResult result;
  result.witness_networks = witness_networks;
  result.swaps = swaps;

  std::vector<std::unique_ptr<protocols::Ac3wnSwapEngine>> engines;
  for (int s = 0; s < swaps; ++s) {
    protocols::Participant* a = world.participant(2 * s);
    protocols::Participant* b = world.participant(2 * s + 1);
    graph::Ac2tGraph graph = graph::MakeTwoPartySwap(
        a->pk(), b->pk(), world.asset_chain(0), 100, world.asset_chain(1), 80,
        /*timestamp=*/s);
    engines.push_back(std::make_unique<protocols::Ac3wnSwapEngine>(
        world.env(), graph, std::vector<protocols::Participant*>{a, b},
        witnesses[static_cast<size_t>(s % witness_networks)], config));
  }
  for (auto& engine : engines) {
    if (!engine->Start().ok()) return result;
  }
  (void)world.env()->sim()->RunUntilCondition(
      [&]() {
        return std::all_of(engines.begin(), engines.end(),
                           [](const auto& e) { return e->Done(); });
      },
      kDeadline);

  for (auto& engine : engines) {
    auto report = engine->Run(kDeadline);  // Finalizes; already done.
    runner::SweepPoint point;
    point.protocol = runner::Protocol::kAc3wn;
    point.topology = runner::Topology::kRing;
    point.size = 2;
    point.seed = seed;
    if (!report.ok()) {
      runner::RunOutcome outcome;
      outcome.point = point;
      outcome.error = report.status().ToString();
      result.outcomes.push_back(std::move(outcome));
      continue;
    }
    result.outcomes.push_back(runner::ReduceReport(point, *report));
    result.makespan_ms = std::max(
        result.makespan_ms, static_cast<double>(report->end_time));
  }
  return result;
}

}  // namespace

namespace bench {

StudyRun Scalability(const Options& context) {
  const int swaps = context.smoke ? 6 : 12;
  const std::vector<int> witness_counts = {1, 2, 4, 8};

  benchutil::PrintHeader(
      "Section 5.2 — coordination scalability: a batch of concurrent AC2Ts\n"
      "spread across W capacity-starved witness networks (1 tx/block)");

  const double delta_ms = bench::MeasureStudyDelta(1);

  // Each batch world is independent and deterministic: fan the witness-
  // count axis across the worker pool.
  runner::SweepRunner pool(context.threads);
  const auto batches_start = std::chrono::steady_clock::now();
  std::vector<BatchResult> batches = pool.Map<BatchResult>(
      static_cast<int>(witness_counts.size()), [&](int i) {
        const int w = witness_counts[static_cast<size_t>(i)];
        return RunBatch(w, swaps, 9100 + static_cast<uint64_t>(w));
      });
  const double batches_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - batches_start)
          .count();

  std::printf("batch: %d two-party swaps over 2 shared asset chains\n\n",
              swaps);
  std::printf("%10s | %10s | %14s | %17s | %10s\n", "witnesses", "committed",
              "makespan (ms)", "mean latency (ms)", "p99 (d^)");
  benchutil::PrintRule(75);

  runner::Json rows = runner::Json::Array();
  for (const BatchResult& batch : batches) {
    runner::SweepAggregate agg = runner::Aggregate(batch.outcomes, delta_ms);
    std::printf("%10d | %7d/%-2d | %14.0f | %17.0f | %10.1f\n",
                batch.witness_networks, agg.committed, batch.swaps,
                batch.makespan_ms, agg.commit_latency.mean_ms,
                agg.p99_latency_deltas);
    runner::Json row = runner::Json::Object();
    row.Set("witness_networks", batch.witness_networks);
    row.Set("swaps", batch.swaps);
    row.Set("makespan_ms", batch.makespan_ms);
    // Batch-level throughput: the whole batch's commits over its makespan.
    row.Set("batch_swaps_per_sec",
            batch.makespan_ms > 0
                ? 1000.0 * agg.committed / batch.makespan_ms
                : 0.0);
    row.Set("aggregate", runner::AggregateToJson(agg));
    rows.Push(std::move(row));
  }
  benchutil::PrintRule(75);

  runner::Json results = runner::Json::Object();
  results.Set("protocol", "ac3wn");
  results.Set("delta_ms", delta_ms);
  results.Set("rows", std::move(rows));

  runner::Json wall = runner::Json::Object();
  wall.Set("wall_ms_batches", batches_wall_ms);
  wall.Set("worlds_per_sec",
           batches_wall_ms > 0
               ? static_cast<double>(batches.size()) /
                     (batches_wall_ms / 1000.0)
               : 0.0);
  std::printf(
      "\nshape check: with one starved witness network the batch queues on\n"
      "SCw transactions; adding witness networks shrinks makespan and mean\n"
      "latency toward the asset-chain floor — coordination itself is\n"
      "embarrassingly parallel, exactly Section 5.2's argument.\n");
  return {std::move(results), std::move(wall)};
}

}  // namespace bench
}  // namespace ac3
