// Figure 9: "Overall transaction latency of 4·Δ when the AC3WN protocol is
// used."
//
// Reproduces the figure's timeline: the four phases (SCw deployment,
// parallel contract deployment, SCw state change, parallel redemption) are
// printed with their completion times. Unlike Figure 8's staircase, every
// contract publishes in the SAME wave and redeems in the SAME wave, so the
// end-to-end time does not grow with the number of participants.

#include <algorithm>
#include <cstdio>

#include "bench/study.h"
#include "src/protocols/ac3wn_swap.h"

namespace ac3 {
namespace {

constexpr TimePoint kDeadline = Minutes(60);

runner::Json RunTimeline(int diameter) {
  runner::Json row = runner::Json::Object();
  row.Set("diameter", diameter);
  core::ScenarioOptions options;
  options.participants = diameter;
  options.asset_chains = std::min(diameter, 4);
  options.seed = 4900 + static_cast<uint64_t>(diameter);
  core::ScenarioWorld world(options);
  world.StartMining();
  graph::Ac2tGraph ring = runner::RingOverWorld(&world, diameter);
  protocols::Ac3wnSwapEngine engine(world.env(), ring, world.all_participants(),
                                    world.witness_chain(), {});
  auto report = engine.Run(kDeadline);
  if (!report.ok()) {
    std::printf("Diam=%d: engine error: %s\n", diameter,
                report.status().ToString().c_str());
    row.Set("error", report.status().ToString());
    return row;
  }

  std::printf("\nDiam(D) = %d  (%s)\n", diameter, report->Summary().c_str());
  std::printf("%28s | %10s\n", "phase", "t_ms");
  benchutil::PrintRule(44);
  runner::Json phases = runner::Json::Object();
  for (const auto& [name, at] : report->phases) {
    std::printf("%28s | %10lld\n", name.c_str(),
                static_cast<long long>(at - report->start_time));
    phases.Set(name, at - report->start_time);
  }
  TimePoint first_pub = INT64_MAX, last_pub = -1;
  for (const auto& edge : report->edges) {
    first_pub = std::min(first_pub, edge.published_at);
    last_pub = std::max(last_pub, edge.published_at);
  }
  std::printf("%28s | %10lld   (all %zu contracts in one wave: spread %lld ms)\n",
              "last_contract_published",
              static_cast<long long>(last_pub - report->start_time),
              report->edges.size(),
              static_cast<long long>(last_pub - first_pub));
  std::printf("%28s | %10lld\n", "all_redeemed",
              static_cast<long long>(report->end_time - report->start_time));
  row.Set("committed", report->committed);
  row.Set("phases", std::move(phases));
  row.Set("last_contract_published_ms", last_pub - report->start_time);
  row.Set("publish_spread_ms", last_pub - first_pub);
  row.Set("all_redeemed_ms", report->end_time - report->start_time);
  return row;
}

}  // namespace

namespace bench {

StudyRun Fig9Ac3wnTimeline(const Options& context) {
  benchutil::PrintHeader(
      "Figure 9 — AC3WN timeline: four constant phases (SCw deploy,\n"
      "parallel deploy, SCw state change, parallel redeem) = 4 deltas");
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
