// Figure 8: "Overall transaction latency of 2·Δ·Diam(D) when the single
// leader atomic swap protocol is used."
//
// Reproduces the figure's timeline: on a directed ring (diameter = number
// of participants) the harness prints, per contract, when it was published
// and when it was redeemed. The publish column forms Diam sequential waves
// and the redeem column forms Diam more — the two-phase staircase of the
// figure.

#include <algorithm>
#include <cstdio>

#include "bench/study.h"
#include "src/protocols/herlihy_swap.h"

namespace ac3 {
namespace {

constexpr TimePoint kDeadline = Minutes(60);

runner::Json RunTimeline(int diameter) {
  runner::Json row = runner::Json::Object();
  row.Set("diameter", diameter);
  core::ScenarioOptions options;
  options.participants = diameter;
  options.asset_chains = std::min(diameter, 4);
  options.witness_chain = false;
  options.seed = 4100 + static_cast<uint64_t>(diameter);
  core::ScenarioWorld world(options);
  world.StartMining();
  graph::Ac2tGraph ring = runner::RingOverWorld(&world, diameter);
  protocols::HerlihySwapEngine engine(world.env(), ring,
                                      world.all_participants(), {});
  auto report = engine.Run(kDeadline);
  if (!report.ok()) {
    std::printf("Diam=%d: engine error: %s\n", diameter,
                report.status().ToString().c_str());
    row.Set("error", report.status().ToString());
    return row;
  }

  std::printf("\nDiam(D) = %d  (leader = P%u, %s)\n", diameter,
              engine.leader(), report->Summary().c_str());
  std::printf("%10s | %12s | %12s | %10s\n", "contract", "published_ms",
              "redeemed_ms", "outcome");
  benchutil::PrintRule(56);
  std::vector<protocols::EdgeReport> edges = report->edges;
  std::sort(edges.begin(), edges.end(),
            [](const protocols::EdgeReport& a, const protocols::EdgeReport& b) {
              return a.published_at < b.published_at;
            });
  runner::Json contracts = runner::Json::Array();
  for (const protocols::EdgeReport& edge : edges) {
    std::printf("  SC(%u->%u) | %12lld | %12lld | %10s\n", edge.edge.from,
                edge.edge.to,
                static_cast<long long>(edge.published_at - report->start_time),
                static_cast<long long>(edge.settled_at - report->start_time),
                protocols::EdgeOutcomeName(edge.outcome));
    runner::Json contract = runner::Json::Object();
    contract.Set("from", edge.edge.from);
    contract.Set("to", edge.edge.to);
    contract.Set("published_ms", edge.published_at - report->start_time);
    contract.Set("settled_ms", edge.settled_at - report->start_time);
    contract.Set("outcome", protocols::EdgeOutcomeName(edge.outcome));
    contracts.Push(std::move(contract));
  }
  // The staircase summary the figure conveys: width of each phase.
  TimePoint first_pub = INT64_MAX, last_pub = -1, last_settle = -1;
  for (const auto& edge : edges) {
    first_pub = std::min(first_pub, edge.published_at);
    last_pub = std::max(last_pub, edge.published_at);
    last_settle = std::max(last_settle, edge.settled_at);
  }
  std::printf("publish phase spans %lld ms, full swap %lld ms "
              "(sequential waves ~ Diam)\n",
              static_cast<long long>(last_pub - first_pub),
              static_cast<long long>(last_settle - report->start_time));
  row.Set("committed", report->committed);
  row.Set("publish_span_ms", last_pub - first_pub);
  row.Set("swap_ms", last_settle - report->start_time);
  row.Set("contracts", std::move(contracts));
  return row;
}

}  // namespace

namespace bench {

StudyRun Fig8HerlihyTimeline(const Options& context) {
  benchutil::PrintHeader(
      "Figure 8 — Herlihy single-leader timeline: sequential deployment\n"
      "then sequential redemption, 2*Diam(D) deltas end to end");
  const std::vector<int> diameters =
      context.smoke ? std::vector<int>{2, 3} : std::vector<int>{2, 3, 4, 6};
  runner::Json rows = runner::Json::Array();
  for (int diam : diameters) {
    rows.Push(RunTimeline(diam));
  }
  runner::Json results = runner::Json::Object();
  results.Set("rows", std::move(rows));
  return {std::move(results), runner::Json()};
}

}  // namespace bench
}  // namespace ac3
