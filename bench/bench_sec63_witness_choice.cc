// Section 6.3 — choosing the witness network: the depth d must satisfy
// d > Va*dh/Ch so a 51% rental attack costs more than the assets at stake.
//
// The harness prints (a) the paper's worked example ($1M on Bitcoin ⇒
// d > 20), (b) the required depth for an asset-value sweep across the
// top-4 chains, (c) the witness ranking by time-to-finality, and (d) the
// fork-survival model ε(q, d) = (q/(1-q))^d behind Lemma 5.3, cross-checked
// against fork frequencies measured from the mining simulator under
// aggressive gossip delays.

#include <cstdio>
#include <map>

#include "bench/study.h"
#include "src/analysis/witness_selection.h"

namespace ac3 {
namespace {

/// Measures how often a block that was once canonical at depth k gets
/// reorged, by running a single chain with gossip delays comparable to the
/// block interval (fork-heavy regime) and tracking canonical flips.
std::map<uint32_t, double> MeasureReorgFrequency(uint64_t seed,
                                                 TimePoint duration) {
  core::ScenarioOptions options;
  options.asset_chains = 1;
  options.witness_chain = false;
  options.participants = 2;
  options.seed = seed;
  options.miner_count = 4;
  // Propagation delay beyond the block interval: natural forks abound.
  options.max_propagation_delay = Milliseconds(150);
  core::ScenarioWorld world(options);
  world.StartMining();

  const chain::Blockchain* chain = world.env()->blockchain(0);
  // hash -> deepest confirmation count observed while canonical.
  std::map<crypto::Hash256, uint32_t> deepest;
  std::map<uint32_t, uint64_t> reached;   // blocks that reached depth k
  std::map<uint32_t, uint64_t> reverted;  // ... and were later reorged

  TimePoint t = 0;
  while (t < duration) {
    t += Milliseconds(20);
    world.env()->sim()->RunUntil(t);
    for (const chain::BlockEntry* entry : chain->arrival_order()) {
      auto confirmations = chain->ConfirmationsOf(entry->hash);
      if (confirmations.has_value()) {
        uint32_t depth =
            static_cast<uint32_t>(std::min<uint64_t>(*confirmations, 8));
        auto it = deepest.find(entry->hash);
        if (it == deepest.end() || it->second < depth) {
          deepest[entry->hash] = depth;
        }
      }
    }
  }
  // A block whose deepest observed depth was k but is non-canonical at the
  // end was reorged after reaching depth k.
  for (const auto& [hash, depth] : deepest) {
    const bool canonical = chain->IsCanonical(hash);
    for (uint32_t k = 0; k <= depth; ++k) {
      reached[k] += 1;
      if (!canonical) reverted[k] += 1;
    }
  }
  std::map<uint32_t, double> out;
  for (const auto& [k, n] : reached) {
    out[k] = n == 0 ? 0.0 : static_cast<double>(reverted[k]) /
                                static_cast<double>(n);
  }
  return out;
}

}  // namespace

namespace bench {

StudyRun Sec63WitnessChoice(const Options& context) {
  benchutil::PrintHeader(
      "Section 6.3 — witness-network choice: d > Va*dh/Ch");

  // (a) The paper's worked example.
  std::printf(
      "paper example: Va=$1M, Bitcoin witness (Ch=$300K/h, dh=6/h)\n"
      "  bound Va*dh/Ch = %.1f blocks  =>  minimum safe d = %u\n"
      "  attack cost at d=21: $%.0f (> $1M: attack disincentivized)\n\n",
      analysis::RequiredDepthBound(1e6, 6.0, 300e3),
      analysis::MinimumSafeDepth(1e6, 6.0, 300e3),
      analysis::AttackCostForDepth(21, 6.0, 300e3));

  // (b) Depth sweep across asset values and witness chains.
  const std::vector<chain::ChainParams> chains = {
      chain::BitcoinParams(), chain::EthereumParams(), chain::LitecoinParams(),
      chain::BitcoinCashParams()};
  std::printf("minimum safe depth d by asset value Va:\n");
  std::printf("%12s |", "Va (USD)");
  for (const auto& params : chains) std::printf(" %12s", params.name.c_str());
  std::printf("\n");
  benchutil::PrintRule(70);
  runner::Json depth_rows = runner::Json::Array();
  for (double va : {1e4, 1e5, 5e5, 1e6, 5e6, 1e7}) {
    std::printf("%12.0f |", va);
    runner::Json row = runner::Json::Object();
    row.Set("va_usd", va);
    for (const auto& params : chains) {
      const uint32_t depth =
          analysis::MinimumSafeDepth(va, params.real_blocks_per_hour,
                                     params.attack_cost_per_hour_usd);
      std::printf(" %12u", depth);
      row.Set(params.name, depth);
    }
    depth_rows.Push(std::move(row));
    std::printf("\n");
  }

  // (c) Ranking by finality time for the paper's $1M example.
  std::printf("\nwitness ranking for Va=$1M (by time-to-finality):\n");
  std::printf("%12s | %10s | %14s | %16s\n", "chain", "depth d",
              "finality (h)", "attack cost ($)");
  benchutil::PrintRule(62);
  runner::Json ranking = runner::Json::Array();
  for (const auto& choice : analysis::RankWitnessNetworks(chains, 1e6)) {
    std::printf("%12s | %10u | %14.2f | %16.0f\n", choice.chain_name.c_str(),
                choice.required_depth, choice.finality_hours,
                choice.attack_cost_usd);
    runner::Json row = runner::Json::Object();
    row.Set("chain", choice.chain_name);
    row.Set("required_depth", choice.required_depth);
    row.Set("finality_hours", choice.finality_hours);
    row.Set("attack_cost_usd", choice.attack_cost_usd);
    ranking.Push(std::move(row));
  }

  // (d) Fork-survival: the analytic epsilon of Lemma 5.3 ...
  std::printf("\nfork catch-up probability (q/(1-q))^d (Lemma 5.3's epsilon):\n");
  std::printf("%6s |", "d");
  for (double q : {0.10, 0.25, 0.33, 0.45}) std::printf("   q=%.2f  ", q);
  std::printf("\n");
  benchutil::PrintRule(56);
  for (uint32_t d : {1u, 2u, 4u, 6u, 8u, 12u}) {
    std::printf("%6u |", d);
    for (double q : {0.10, 0.25, 0.33, 0.45}) {
      std::printf("  %9.2e", analysis::ForkCatchUpProbability(q, d));
    }
    std::printf("\n");
  }

  // ... cross-checked against natural-fork reorg rates in the simulator.
  const Duration reorg_window = context.smoke ? Seconds(20) : Minutes(2);
  std::printf(
      "\nmeasured reorg frequency vs confirmation depth (fork-heavy gossip,\n"
      "propagation delay ~ block interval / 2, 4 miners, %.0f sim-seconds):\n",
      ToSeconds(reorg_window));
  auto measured = MeasureReorgFrequency(/*seed=*/777, reorg_window);
  std::printf("%6s | %16s\n", "depth", "P(reorg after)");
  benchutil::PrintRule(28);
  runner::Json reorg_rows = runner::Json::Array();
  for (const auto& [depth, p] : measured) {
    if (depth > 6) continue;
    std::printf("%6u | %15.4f\n", depth, p);
    runner::Json row = runner::Json::Object();
    row.Set("depth", depth);
    row.Set("p_reorg", p);
    reorg_rows.Push(std::move(row));
  }
  std::printf(
      "\nshape check: required d grows linearly in Va and inversely in Ch;\n"
      "both the analytic epsilon and the measured reorg rate fall\n"
      "geometrically with depth — waiting d blocks makes conflicting\n"
      "RDauth/RFauth states vanishingly unlikely to both survive.\n");
  runner::Json results = runner::Json::Object();
  runner::Json example = runner::Json::Object();
  example.Set("bound_blocks", analysis::RequiredDepthBound(1e6, 6.0, 300e3));
  example.Set("min_safe_depth", analysis::MinimumSafeDepth(1e6, 6.0, 300e3));
  example.Set("attack_cost_at_21", analysis::AttackCostForDepth(21, 6.0, 300e3));
  results.Set("paper_example", std::move(example));
  results.Set("depth_by_value", std::move(depth_rows));
  results.Set("ranking_va_1m", std::move(ranking));
  results.Set("measured_reorg", std::move(reorg_rows));
  return {std::move(results), runner::Json()};
}

}  // namespace bench
}  // namespace ac3
