// Figure 10: "The overall AC2T latency in Δs as the graph diameter,
// Diam(D), increases."
//
// Paper result: Herlihy's single-leader protocol costs 2·Δ·Diam(D) while
// AC3WN stays constant at 4·Δ. Ported onto the SweepRunner substrate: the
// protocol × diameter × seed grid runs as independent deterministic worlds
// on the worker pool, per-(protocol, diameter) SwapReport aggregates are
// normalized by a measured Δ, and the structured results are published as
// BENCH_fig10_latency_vs_diameter.json; the printed table is a thin view.
//
// Expected shape: the Herlihy column grows linearly with the diameter; the
// AC3WN column is flat (within confirmation noise); the curves touch at
// Diam = 2 and diverge beyond.

#include <cstdio>
#include <vector>

#include "bench/study.h"
#include "src/analysis/latency_model.h"
#include "src/runner/sweep_runner.h"

namespace ac3::bench {

StudyRun Fig10LatencyVsDiameter(const Options& context) {
  const int max_diameter = context.smoke ? 4 : 12;
  const int seeds_per_point = context.smoke ? 1 : 5;

  // A ring of n participants has Diam(D) = n, so the diameter axis is the
  // size axis of the ring family.
  runner::SweepGridConfig grid;
  grid.protocols = {runner::Protocol::kHerlihy, runner::Protocol::kAc3wn};
  grid.topologies = {runner::Topology::kRing};
  grid.sizes.clear();
  for (int diam = 2; diam <= max_diameter; ++diam) {
    grid.sizes.push_back(diam);
  }
  grid.seeds.clear();
  for (int s = 0; s < seeds_per_point; ++s) {
    grid.seeds.push_back(1000 + static_cast<uint64_t>(s));
  }
  const double delta_ms = bench::BeginStudy(
      context, &grid,
      "Figure 10 — AC2T latency vs. graph diameter Diam(D)\n"
      "analytic: Herlihy 2*Diam deltas, AC3WN 4 deltas (constant)");
  const bench::GridRun run = bench::RunStudyGrid(context, grid);

  auto bucket = [&](runner::Protocol protocol, int diameter) {
    return bench::AggregateWhere(
        run.outcomes, delta_ms, [&](const runner::RunOutcome& outcome) {
          return outcome.point.protocol == protocol &&
                 outcome.point.size == diameter;
        });
  };

  std::printf("%6s | %14s %14s | %12s %12s | %12s %12s\n", "Diam",
              "Herlihy(deltas)", "AC3WN(deltas)", "Herlihy(ms)", "AC3WN(ms)",
              "Herlihy(d^)", "AC3WN(d^)");
  benchutil::PrintRule(100);

  runner::Json rows = runner::Json::Array();
  for (int diam : grid.sizes) {
    const uint32_t herlihy_analytic =
        analysis::HerlihyLatencyDeltas(static_cast<uint32_t>(diam));
    const uint32_t ac3wn_analytic = analysis::Ac3wnLatencyDeltas();
    runner::SweepAggregate herlihy =
        bucket(runner::Protocol::kHerlihy, diam);
    runner::SweepAggregate ac3wn = bucket(runner::Protocol::kAc3wn, diam);
    // -1 preserves the pre-port failure sentinel: a bucket where nothing
    // committed must not read as zero latency.
    auto ms_or = [](const runner::SweepAggregate& agg) {
      return agg.commit_latency.samples > 0 ? agg.commit_latency.mean_ms : -1.0;
    };
    auto deltas_or = [](const runner::SweepAggregate& agg) {
      return agg.commit_latency.samples > 0 ? agg.mean_latency_deltas : -1.0;
    };
    std::printf("%6d | %14u %14u | %12.0f %12.0f | %12.1f %12.1f\n", diam,
                herlihy_analytic, ac3wn_analytic, ms_or(herlihy), ms_or(ac3wn),
                deltas_or(herlihy), deltas_or(ac3wn));
    runner::Json row = runner::Json::Object();
    row.Set("diameter", diam);
    row.Set("herlihy_analytic_deltas", herlihy_analytic);
    row.Set("ac3wn_analytic_deltas", ac3wn_analytic);
    row.Set("herlihy", runner::AggregateToJson(herlihy));
    row.Set("ac3wn", runner::AggregateToJson(ac3wn));
    rows.Push(std::move(row));
  }
  benchutil::PrintRule(100);

  // Per-protocol aggregates over the whole sweep: the headline
  // latency-in-Δ and swap-throughput numbers.
  runner::Json protocols = runner::Json::Object();
  for (runner::Protocol protocol : grid.protocols) {
    protocols.Set(runner::ProtocolName(protocol),
                  runner::AggregateToJson(bench::AggregateWhere(
                      run.outcomes, delta_ms,
                      [&](const runner::RunOutcome& outcome) {
                        return outcome.point.protocol == protocol;
                      })));
  }

  runner::Json results = runner::Json::Object();
  results.Set("delta_ms", delta_ms);
  results.Set("rows", std::move(rows));
  results.Set("protocols", std::move(protocols));

  std::printf(
      "shape check: Herlihy grows ~linearly in Diam while AC3WN stays flat;\n"
      "the paper's crossover at Diam = 2 (both 4 deltas) holds analytically\n"
      "and the simulated AC3WN column is diameter-independent.\n");
  return {std::move(results), run.WallJson()};
}

}  // namespace ac3::bench
