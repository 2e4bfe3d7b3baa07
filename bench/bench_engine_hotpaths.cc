// Engine hot-path benchmark: wall-clock cost of the blockchain substrate
// itself, independent of any swap protocol. This is the trajectory anchor
// for perf PRs — it measures the per-block hot paths (block
// assembly/validation with a growing ledger, visible-head selection under
// Poisson mining, mempool drain, and PoW nonce search) and reports
// blocks/sec and nonce-evals/sec across chain lengths, so a regression to
// O(chain-length) per-block cost is visible as a falling segment rate.
//
// Determinism contract: everything under "results" (head hashes, heights,
// per-segment tx counts, nonce evaluation counts) is a pure function of the
// seeds and must be bit-for-bit stable across runs, thread counts and
// refactors. Wall-clock rates are machine-dependent and live in the
// envelope's "wall" section.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/study.h"
#include "src/chain/blockchain.h"
#include "src/chain/mempool.h"
#include "src/chain/pow.h"
#include "src/chain/wallet.h"
#include "src/core/environment.h"
#include "src/crypto/sha256.h"

namespace ac3 {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

// ---- section 1: chain growth (assembly + validation + state) --------------
//
// Manually mines a chain of `total_blocks` blocks, `txs_per_block` funded
// transfers each, and times every `segment` blocks separately. With
// O(chain-length) per-block state copies the segment rate decays linearly;
// with the COW engine it stays flat.

struct GrowthSegment {
  uint64_t end_height = 0;
  int txs = 0;           ///< Transfers included in this segment.
  double wall_ms = 0;
  double blocks_per_sec = 0;
};

struct GrowthRun {
  std::vector<GrowthSegment> segments;
  std::string head_hash;
  uint64_t height = 0;
};

GrowthRun RunChainGrowth(uint64_t total_blocks, uint64_t segment,
                         int txs_per_block) {
  constexpr int kUsers = 8;
  chain::ChainParams params = chain::TestChainParams();
  params.difficulty_bits = 4;  // ~16 nonce evals/block: assembly dominates.
  params.max_block_txs = 64;

  std::vector<crypto::KeyPair> keys;
  std::vector<chain::TxOutput> allocations;
  for (int i = 0; i < kUsers; ++i) {
    keys.push_back(crypto::KeyPair::FromSeed(5000 + static_cast<uint64_t>(i)));
    allocations.push_back(chain::TxOutput{1'000'000, keys.back().public_key()});
  }
  chain::Blockchain chain(params, allocations);
  std::vector<chain::Wallet> wallets;
  for (int i = 0; i < kUsers; ++i) wallets.emplace_back(keys[i], chain.id());
  const crypto::KeyPair miner = crypto::KeyPair::FromSeed(4999);

  Rng rng(4242);
  GrowthRun run;
  TimePoint now = 0;
  uint64_t nonce = 1;
  for (uint64_t start = 0; start < total_blocks; start += segment) {
    const uint64_t end = std::min(start + segment, total_blocks);
    GrowthSegment seg;
    const Clock::time_point t0 = Clock::now();
    for (uint64_t b = start; b < end; ++b) {
      now += 100;
      std::vector<chain::Transaction> txs;
      for (int j = 0; j < txs_per_block; ++j) {
        const int from = static_cast<int>((b + static_cast<uint64_t>(j)) %
                                          kUsers);
        auto tx = wallets[static_cast<size_t>(from)].BuildTransfer(
            chain.StateAtHead(), keys[static_cast<size_t>((from + 1) % kUsers)]
                                     .public_key(),
            /*amount=*/10, /*fee=*/1, nonce++);
        if (tx.ok()) txs.push_back(*tx);
      }
      seg.txs += static_cast<int>(txs.size());
      auto block = chain.AssembleBlock(chain.head()->hash, txs,
                                       miner.public_key(), now, &rng);
      if (!block.ok() || !chain.SubmitBlock(*block, now).ok()) {
        std::fprintf(stderr, "chain growth: mining failed at height %llu\n",
                     static_cast<unsigned long long>(b));
        break;
      }
    }
    seg.wall_ms = ElapsedMs(t0);
    seg.end_height = chain.height();
    seg.blocks_per_sec = seg.wall_ms > 0
                             ? static_cast<double>(end - start) /
                                   (seg.wall_ms / 1000.0)
                             : 0;
    run.segments.push_back(seg);
  }
  run.head_hash = chain.head()->hash.ToHex();
  run.height = chain.height();
  return run;
}

// ---- section 2: Poisson mining simulation (visible-head selection) --------
//
// A full MiningNetwork on a discrete-event kernel: every produced block
// picks the heaviest block its miner can see, which is the VisibleHead hot
// path. Cost per block must not grow with the number of stored blocks.

struct MiningSimRun {
  uint64_t height = 0;
  size_t blocks_stored = 0;
  std::string head_hash;
  double wall_ms = 0;
  double blocks_per_sec = 0;
};

MiningSimRun RunMiningSim(uint64_t target_height) {
  chain::ChainParams params = chain::TestChainParams();
  params.difficulty_bits = 4;
  params.block_interval = Milliseconds(200);

  const Clock::time_point t0 = Clock::now();
  core::Environment env(/*seed=*/7);
  chain::MiningConfig mining;
  mining.miner_count = 5;
  mining.max_propagation_delay = Milliseconds(40);
  const chain::ChainId id = env.AddChain(params, {}, mining);
  env.StartMining();
  const chain::Blockchain* chain = env.blockchain(id);
  (void)env.sim()->RunUntilCondition(
      [&]() { return chain->height() >= target_height; }, Hours(24));
  env.StopMining();

  MiningSimRun run;
  run.wall_ms = ElapsedMs(t0);
  run.height = chain->height();
  run.blocks_stored = chain->block_count();
  run.head_hash = chain->head()->hash.ToHex();
  run.blocks_per_sec = run.wall_ms > 0 ? static_cast<double>(run.height) /
                                             (run.wall_ms / 1000.0)
                                       : 0;
  return run;
}

// ---- section 2b: saturated mempool drain ----------------------------------
//
// `users` one-shot transfers flood the mempool at t=0 and the Poisson
// miners drain it. Candidate selection copies every pending-and-visible
// entry per assembled block, so with no mempool hygiene the per-block cost
// stays O(users) for the whole run; with prune-on-head-move batching
// (Environment wires Mempool::Prune to canonical head movement) the pool
// shrinks as transactions land and the drain accelerates.

struct MempoolDrainRun {
  size_t submitted = 0;
  uint64_t included = 0;
  uint64_t height = 0;
  size_t pool_left = 0;  ///< Deterministic: pending entries at the end.
  std::string head_hash;
  double wall_ms = 0;
  double txs_per_sec = 0;
};

MempoolDrainRun RunMempoolDrain(int users) {
  chain::ChainParams params = chain::TestChainParams();
  params.difficulty_bits = 4;
  params.block_interval = Milliseconds(100);
  params.max_block_txs = 32;

  const Clock::time_point t0 = Clock::now();
  core::Environment env(/*seed=*/21);
  std::vector<crypto::KeyPair> keys;
  std::vector<chain::TxOutput> allocations;
  keys.reserve(static_cast<size_t>(users));
  for (int i = 0; i < users; ++i) {
    keys.push_back(crypto::KeyPair::FromSeed(70'000 + static_cast<uint64_t>(i)));
    allocations.push_back(chain::TxOutput{100, keys.back().public_key()});
  }
  chain::MiningConfig mining;
  mining.miner_count = 3;
  mining.max_propagation_delay = Milliseconds(2);
  const chain::ChainId id = env.AddChain(params, allocations, mining);
  chain::Mempool* mempool = env.mempool(id);
  const chain::LedgerState genesis_state =
      env.blockchain(id)->StateAt(*env.blockchain(id)->genesis());
  for (int i = 0; i < users; ++i) {
    chain::Wallet wallet(keys[static_cast<size_t>(i)], id);
    auto tx = wallet.BuildTransfer(
        genesis_state, keys[static_cast<size_t>((i + 1) % users)].public_key(),
        /*amount=*/50, /*fee=*/1, /*nonce=*/1);
    if (tx.ok()) (void)mempool->Submit(*tx, 0);
  }

  MempoolDrainRun run;
  run.submitted = mempool->size();
  env.StartMining();
  const chain::Blockchain* chain = env.blockchain(id);
  auto included_users = [&]() -> uint64_t {
    return chain->head()->included_tx_count - chain->height() - 1;
  };
  (void)env.sim()->RunUntilCondition(
      [&]() { return included_users() >= run.submitted; }, Hours(1));
  env.StopMining();

  run.wall_ms = ElapsedMs(t0);
  run.included = included_users();
  run.height = chain->height();
  run.pool_left = mempool->size();
  run.head_hash = chain->head()->hash.ToHex();
  run.txs_per_sec = run.wall_ms > 0 ? static_cast<double>(run.included) /
                                          (run.wall_ms / 1000.0)
                                    : 0;
  return run;
}

// ---- section 3: PoW nonce search ------------------------------------------

struct PowRun {
  uint64_t headers = 0;
  uint64_t evaluations = 0;  ///< Deterministic given the seed.
  double wall_ms = 0;
  double evals_per_sec = 0;
};

PowRun RunPow(uint32_t difficulty_bits, uint64_t headers) {
  Rng rng(99);
  PowRun run;
  run.headers = headers;
  const Clock::time_point t0 = Clock::now();
  for (uint64_t i = 0; i < headers; ++i) {
    chain::BlockHeader header;
    header.chain_id = 1;
    header.height = i + 1;
    header.time = static_cast<TimePoint>(i * 100);
    header.difficulty_bits = difficulty_bits;
    run.evaluations += chain::MineHeader(&header, &rng);
  }
  run.wall_ms = ElapsedMs(t0);
  run.evals_per_sec = run.wall_ms > 0 ? static_cast<double>(run.evaluations) /
                                            (run.wall_ms / 1000.0)
                                      : 0;
  return run;
}

}  // namespace

namespace bench {

StudyRun EngineHotpaths(const Options& context) {
  const uint64_t growth_blocks = context.smoke ? 400 : 2500;
  const uint64_t growth_segment = context.smoke ? 100 : 250;
  const int txs_per_block = 4;
  const uint64_t sim_height = context.smoke ? 150 : 1200;
  const int drain_users = context.smoke ? 500 : 3000;
  const uint32_t pow_bits = context.smoke ? 12 : 16;
  const uint64_t pow_headers = context.smoke ? 4 : 16;

  benchutil::PrintHeader(
      "Engine hot paths — blocks/sec vs chain length, mining-sim rate,\n"
      "and PoW nonce-evals/sec (wall-clock; deterministic witnesses in "
      "results)");

  GrowthRun growth =
      RunChainGrowth(growth_blocks, growth_segment, txs_per_block);
  std::printf("%12s | %8s | %12s | %10s\n", "height", "txs", "wall ms",
              "blocks/s");
  benchutil::PrintRule(52);
  runner::Json growth_cells = runner::Json::Array();
  runner::Json growth_wall = runner::Json::Array();
  for (const GrowthSegment& seg : growth.segments) {
    std::printf("%12llu | %8d | %12.1f | %10.0f\n",
                static_cast<unsigned long long>(seg.end_height), seg.txs,
                seg.wall_ms, seg.blocks_per_sec);
    runner::Json cell = runner::Json::Object();
    cell.Set("end_height", seg.end_height);
    cell.Set("txs", seg.txs);
    growth_cells.Push(std::move(cell));
    runner::Json wall = runner::Json::Object();
    wall.Set("end_height", seg.end_height);
    wall.Set("wall_ms", seg.wall_ms);
    wall.Set("blocks_per_sec", seg.blocks_per_sec);
    growth_wall.Push(std::move(wall));
  }

  MiningSimRun sim = RunMiningSim(sim_height);
  std::printf("\nmining sim: height %llu (%zu blocks stored) in %.1f ms — "
              "%.0f blocks/s\n",
              static_cast<unsigned long long>(sim.height), sim.blocks_stored,
              sim.wall_ms, sim.blocks_per_sec);

  MempoolDrainRun drain = RunMempoolDrain(drain_users);
  std::printf("mempool drain: %zu txs over %llu blocks (%zu left pending) in "
              "%.1f ms — %.0f txs/s\n",
              drain.submitted, static_cast<unsigned long long>(drain.height),
              drain.pool_left, drain.wall_ms, drain.txs_per_sec);

  PowRun pow = RunPow(pow_bits, pow_headers);
  std::printf("pow: %llu headers at %u bits, %llu evals in %.1f ms — "
              "%.2fM evals/s (dispatch: %s)\n",
              static_cast<unsigned long long>(pow.headers), pow_bits,
              static_cast<unsigned long long>(pow.evaluations), pow.wall_ms,
              pow.evals_per_sec / 1e6,
              crypto::Sha256::DispatchName(crypto::Sha256::ActiveDispatch()));

  // PoW dispatch ladder: the identical workload on every available
  // SHA-256 dispatch level. Self-checking — the eval count is part of the
  // determinism contract and must not depend on the hardware path.
  const crypto::Sha256::Dispatch entry_level = crypto::Sha256::ActiveDispatch();
  runner::Json pow_dispatch_wall = runner::Json::Array();
  bool dispatch_invariant = true;
  for (crypto::Sha256::Dispatch level : crypto::Sha256::kDispatchLadder) {
    if (!crypto::Sha256::DispatchAvailable(level)) continue;
    crypto::Sha256::SetDispatch(level);
    const PowRun ladder = RunPow(pow_bits, pow_headers);
    if (ladder.evaluations != pow.evaluations) dispatch_invariant = false;
    std::printf("pow[%s]: %llu evals in %.1f ms — %.2fM evals/s%s\n",
                crypto::Sha256::DispatchName(level),
                static_cast<unsigned long long>(ladder.evaluations),
                ladder.wall_ms, ladder.evals_per_sec / 1e6,
                ladder.evaluations == pow.evaluations ? "" : " (DIVERGED)");
    runner::Json cell = runner::Json::Object();
    cell.Set("dispatch", crypto::Sha256::DispatchName(level));
    cell.Set("wall_ms", ladder.wall_ms);
    cell.Set("evals_per_sec", ladder.evals_per_sec);
    pow_dispatch_wall.Push(std::move(cell));
  }
  crypto::Sha256::SetDispatch(entry_level);
  if (!dispatch_invariant) {
    std::fprintf(stderr,
                 "pow dispatch: eval counts diverged across SHA-256 paths\n");
  }

  // Deterministic witnesses: pure functions of the seeds. The golden
  // determinism test pins the same engine outputs; here they make every
  // published BENCH json self-checking across machines.
  runner::Json results = runner::Json::Object();
  runner::Json growth_json = runner::Json::Object();
  growth_json.Set("blocks", growth_blocks);
  growth_json.Set("txs_per_block", txs_per_block);
  growth_json.Set("height", growth.height);
  growth_json.Set("head_hash", growth.head_hash);
  growth_json.Set("segments", std::move(growth_cells));
  results.Set("chain_growth", std::move(growth_json));
  runner::Json sim_json = runner::Json::Object();
  sim_json.Set("target_height", sim_height);
  sim_json.Set("height", sim.height);
  sim_json.Set("blocks_stored", sim.blocks_stored);
  sim_json.Set("head_hash", sim.head_hash);
  results.Set("mining_sim", std::move(sim_json));
  runner::Json drain_json = runner::Json::Object();
  drain_json.Set("submitted", drain.submitted);
  drain_json.Set("included", drain.included);
  drain_json.Set("height", drain.height);
  drain_json.Set("pool_left", drain.pool_left);
  drain_json.Set("head_hash", drain.head_hash);
  results.Set("mempool_drain", std::move(drain_json));
  runner::Json pow_json = runner::Json::Object();
  pow_json.Set("difficulty_bits", pow_bits);
  pow_json.Set("headers", pow.headers);
  pow_json.Set("evaluations", pow.evaluations);
  // Deterministic by construction (self-checked above): every available
  // dispatch level visited the same nonces. Machine-dependent rates live
  // under wall.pow_dispatch.
  pow_json.Set("dispatch_invariant", dispatch_invariant);
  results.Set("pow", std::move(pow_json));

  // Wall-clock rates: machine-dependent, deliberately outside "results".
  runner::Json wall = runner::Json::Object();
  wall.Set("chain_growth_segments", std::move(growth_wall));
  runner::Json sim_wall = runner::Json::Object();
  sim_wall.Set("wall_ms", sim.wall_ms);
  sim_wall.Set("blocks_per_sec", sim.blocks_per_sec);
  wall.Set("mining_sim", std::move(sim_wall));
  runner::Json drain_wall = runner::Json::Object();
  drain_wall.Set("wall_ms", drain.wall_ms);
  drain_wall.Set("txs_per_sec", drain.txs_per_sec);
  wall.Set("mempool_drain", std::move(drain_wall));
  runner::Json pow_wall = runner::Json::Object();
  pow_wall.Set("wall_ms", pow.wall_ms);
  pow_wall.Set("evals_per_sec", pow.evals_per_sec);
  pow_wall.Set("active_dispatch",
               crypto::Sha256::DispatchName(entry_level));
  wall.Set("pow", std::move(pow_wall));
  wall.Set("pow_dispatch", std::move(pow_dispatch_wall));
  return {std::move(results), std::move(wall), dispatch_invariant};
}

}  // namespace bench
}  // namespace ac3
