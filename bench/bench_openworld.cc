// Open-world traffic benchmark: sustained swaps/sec at
// millions-of-accounts scale through the full ingestion → assembly →
// contention-mining pipeline.
//
// Each cell drives a 2-chain fleet with the deterministic open-loop
// workload generator (sim::WorkloadGenerator): Poisson or bursty swap
// arrivals, Zipf-hot participants from an account universe of up to
// millions of lazily-materialized wallets, per-chain fee pressure. Per
// simulated tick, the harness drains the generator into the mempools via
// Mempool::SubmitBatch, lets several miners per chain assemble competing
// candidate blocks (Mempool::CandidatePointersAt + the span
// AssembleBlock, unmined; miners after the first reuse the chain's block
// template), resolves the proof-of-work race with ONE
// MineHeaderBatch call spanning every miner on every chain (the
// full-lane batch occupying all SIMD lanes across distinct headers), and
// submits each chain's winner — the miner whose search finished in the
// fewest evaluations.
//
// Self-check: the first cell runs twice — the hot arm above, and an
// oracle arm using per-transaction Submit, value-copied candidates (fresh
// addresses for every miner) and sequential per-miner MineHeader — and every
// deterministic output (head hashes, eval totals, per-swap inclusion
// latencies) must match exactly; the process exits non-zero otherwise.
//
// Determinism contract: everything under "results" (offered/completed
// swaps, inclusion-latency percentiles in *simulated* ms, total PoW
// evals, per-cell head-hash fingerprints, the equivalence verdict, the
// declared RSS ceiling) is a pure function of the seeds, at any thread
// count and on every SHA-256 dispatch rung. Wall times, wall swaps/sec
// and the measured peak RSS live under "wall".

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "src/chain/blockchain.h"
#include "src/chain/mempool.h"
#include "src/chain/pow.h"
#include "src/crypto/hash256.h"
#include "src/runner/bench_output.h"
#include "src/sim/workload.h"

namespace ac3 {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

/// VmHWM from /proc/self/status, in bytes (0 if unavailable — non-Linux).
size_t ReadPeakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

constexpr size_t kChains = 2;
constexpr size_t kMinersPerChain = 4;
constexpr Duration kTickMs = 200;

struct CellConfig {
  double arrivals_per_sec = 0;
  uint64_t accounts = 0;
  sim::ArrivalProcess process = sim::ArrivalProcess::kPoisson;
  Duration horizon_ms = 0;
  uint32_t difficulty_bits = 0;
};

const char* ProcessName(sim::ArrivalProcess process) {
  return process == sim::ArrivalProcess::kPoisson ? "poisson" : "bursty";
}

struct CellResult {
  CellConfig config;
  // Deterministic.
  uint64_t offered_swaps = 0;
  uint64_t completed_swaps = 0;
  uint64_t txs_submitted = 0;
  uint64_t blocks_submitted = 0;
  uint64_t total_evals = 0;
  TimePoint sim_end = 0;       ///< Tick at which the pools drained.
  double sim_swaps_per_sec = 0;
  TimePoint latency_p50 = 0;   ///< Swap inclusion latency, simulated ms.
  TimePoint latency_p99 = 0;
  TimePoint latency_p999 = 0;
  std::string fingerprint;     ///< Hash over the chains' head hashes.
  // Machine-dependent.
  double wall_ms = 0;
  double wall_swaps_per_sec = 0;
};

TimePoint Percentile(const std::vector<TimePoint>& sorted, int tenths_pct) {
  if (sorted.empty()) return 0;
  size_t index = sorted.size() * static_cast<size_t>(tenths_pct) / 1000;
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

/// Runs one cell end to end. `oracle` swaps every batched hot path for
/// its serial one-at-a-time twin (the equivalence arm).
CellResult RunCell(const CellConfig& cell, uint64_t seed, bool oracle) {
  CellResult result;
  result.config = cell;
  const Clock::time_point wall_t0 = Clock::now();

  sim::WorkloadConfig workload;
  workload.chains = kChains;
  workload.accounts = cell.accounts;
  workload.arrivals_per_sec = cell.arrivals_per_sec;
  workload.process = cell.process;
  sim::WorkloadGenerator gen(workload, seed);

  std::vector<std::unique_ptr<chain::Blockchain>> chains;
  std::vector<chain::Mempool> pools(kChains);
  for (size_t c = 0; c < kChains; ++c) {
    chain::ChainParams params = chain::TestChainParams();
    params.id = static_cast<chain::ChainId>(c + 1);
    params.name = "open-" + std::to_string(c);
    params.difficulty_bits = cell.difficulty_bits;
    params.max_block_txs = 512;
    chains.push_back(std::make_unique<chain::Blockchain>(
        params, gen.GenesisAllocations(c)));
    gen.BindChain(c, chains[c]->id(), chains[c]->genesis_tx());
  }
  std::vector<crypto::KeyPair> miner_keys;
  for (size_t m = 0; m < kChains * kMinersPerChain; ++m) {
    miner_keys.push_back(crypto::KeyPair::FromSeed(9'000'000 + m));
  }

  Rng pow_rng(seed + 1);
  std::unordered_map<crypto::Hash256, TimePoint> included_at;
  struct PendingSwap {
    TimePoint arrival;
    crypto::Hash256 leg_a;
    crypto::Hash256 leg_b;
  };
  std::vector<PendingSwap> swaps;

  // Post-horizon drain bound: generously above any backlog a cell can
  // accumulate; hitting it means the pipeline stopped making progress.
  const TimePoint drain_deadline =
      cell.horizon_ms + 2'000 * kTickMs;
  TimePoint now = 0;
  bool drained = false;
  while (!drained) {
    now += kTickMs;
    if (now > drain_deadline) {
      std::fprintf(stderr, "openworld: pools failed to drain by tick %lld\n",
                   static_cast<long long>(now));
      std::exit(1);
    }

    // 1. Arrivals → mempools (batched in the hot arm, serial in oracle).
    if (now <= cell.horizon_ms) {
      sim::WorkloadBatch batch = gen.NextBatch(now);
      std::vector<std::vector<chain::Transaction>> per_chain(kChains);
      for (sim::GeneratedTx& gtx : batch.txs) {
        per_chain[gtx.chain].push_back(std::move(gtx.tx));
      }
      for (size_t c = 0; c < kChains; ++c) {
        result.txs_submitted += per_chain[c].size();
        if (oracle) {
          for (const chain::Transaction& tx : per_chain[c]) {
            if (!pools[c].Submit(tx, now).ok()) {
              std::fprintf(stderr, "openworld: duplicate generated tx\n");
              std::exit(1);
            }
          }
        } else {
          auto submitted = pools[c].SubmitBatch(
              std::span<const chain::Transaction>(per_chain[c]), now);
          if (submitted.accepted != per_chain[c].size()) {
            std::fprintf(stderr, "openworld: duplicate generated tx\n");
            std::exit(1);
          }
        }
      }
      for (const sim::SwapRecord& swap : batch.swaps) {
        swaps.push_back(PendingSwap{swap.arrival, swap.leg_a_id,
                                    swap.leg_b_id});
      }
      result.offered_swaps += batch.swaps.size();
    }

    // 2. Every miner on every chain assembles its competing candidate
    //    (unmined). Same head, same candidates, distinct coinbase keys —
    //    so distinct headers racing for the same extension.
    struct Candidate {
      size_t chain;
      size_t miner;
      chain::Block block;
    };
    std::vector<Candidate> candidates;
    for (size_t c = 0; c < kChains; ++c) {
      if (pools[c].size() == 0) continue;
      for (size_t m = 0; m < kMinersPerChain; ++m) {
        const crypto::PublicKey& miner =
            miner_keys[c * kMinersPerChain + m].public_key();
        Result<chain::Block> block = Status::Internal("unassembled");
        if (oracle) {
          auto pool_txs =
              pools[c].CandidatesAt(now, chain::Mempool::TxFilter());
          std::vector<const chain::Transaction*> pointers;
          pointers.reserve(pool_txs.size());
          for (const chain::Transaction& tx : pool_txs) {
            pointers.push_back(&tx);
          }
          block = chains[c]->AssembleBlock(
              chains[c]->head()->hash,
              std::span<const chain::Transaction* const>(pointers), miner,
              now, &pow_rng, /*mine=*/false);
        } else {
          auto pointers =
              pools[c].CandidatePointersAt(now, chain::Mempool::TxFilter());
          block = chains[c]->AssembleBlock(
              chains[c]->head()->hash,
              std::span<const chain::Transaction* const>(pointers), miner,
              now, &pow_rng, /*mine=*/false);
        }
        if (!block.ok()) {
          std::fprintf(stderr, "openworld: assembly failed: %s\n",
                       block.status().ToString().c_str());
          std::exit(1);
        }
        if (block->txs.size() <= 1) continue;  // Nothing minable yet.
        candidates.push_back(Candidate{c, m, std::move(*block)});
      }
    }

    // 3. One batched nonce search across every competing header — all
    //    chains, all miners, every SIMD lane occupied (the oracle arm
    //    mines the same headers sequentially from the same rng).
    std::vector<uint64_t> evals;
    if (oracle) {
      for (Candidate& candidate : candidates) {
        evals.push_back(chain::MineHeader(&candidate.block.header, &pow_rng));
      }
    } else {
      std::vector<chain::BlockHeader*> headers;
      headers.reserve(candidates.size());
      for (Candidate& candidate : candidates) {
        headers.push_back(&candidate.block.header);
      }
      evals = chain::MineHeaderBatch(
          std::span<chain::BlockHeader* const>(headers), &pow_rng);
    }
    for (const uint64_t e : evals) result.total_evals += e;

    // 4. Per chain, the miner whose search finished first (fewest evals;
    //    ties to the lowest miner index) wins the extension.
    for (size_t c = 0; c < kChains; ++c) {
      const Candidate* winner = nullptr;
      uint64_t winner_evals = 0;
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (candidates[i].chain != c) continue;
        if (winner == nullptr || evals[i] < winner_evals) {
          winner = &candidates[i];
          winner_evals = evals[i];
        }
      }
      if (winner == nullptr) continue;
      Status submitted = chains[c]->SubmitBlock(winner->block, now);
      if (!submitted.ok()) {
        std::fprintf(stderr, "openworld: submit failed: %s\n",
                     submitted.ToString().c_str());
        std::exit(1);
      }
      ++result.blocks_submitted;
      std::vector<crypto::Hash256> included;
      included.reserve(winner->block.txs.size() - 1);
      for (size_t i = 1; i < winner->block.txs.size(); ++i) {
        const crypto::Hash256 id = winner->block.txs[i].Id();
        included.push_back(id);
        included_at.emplace(id, now);
      }
      pools[c].Prune(std::span<const crypto::Hash256>(included));
    }

    drained = now >= cell.horizon_ms;
    for (const chain::Mempool& pool : pools) {
      drained = drained && pool.size() == 0;
    }
  }
  result.sim_end = now;

  // Swap inclusion latency: the slower leg's inclusion minus arrival.
  std::vector<TimePoint> latencies;
  latencies.reserve(swaps.size());
  for (const PendingSwap& swap : swaps) {
    const auto leg_a = included_at.find(swap.leg_a);
    const auto leg_b = included_at.find(swap.leg_b);
    if (leg_a == included_at.end() || leg_b == included_at.end()) continue;
    latencies.push_back(std::max(leg_a->second, leg_b->second) -
                        swap.arrival);
  }
  result.completed_swaps = latencies.size();
  std::sort(latencies.begin(), latencies.end());
  result.latency_p50 = Percentile(latencies, 500);
  result.latency_p99 = Percentile(latencies, 990);
  result.latency_p999 = Percentile(latencies, 999);
  result.sim_swaps_per_sec =
      result.sim_end > 0
          ? static_cast<double>(result.completed_swaps) /
                (static_cast<double>(result.sim_end) / 1000.0)
          : 0;

  Bytes head_bytes;
  for (const auto& bc : chains) {
    const auto& digest = bc->head()->hash.data();
    head_bytes.insert(head_bytes.end(), digest.begin(), digest.end());
  }
  result.fingerprint = crypto::Hash256::Of(head_bytes).ToHex();

  result.wall_ms = ElapsedMs(wall_t0);
  result.wall_swaps_per_sec =
      result.wall_ms > 0 ? static_cast<double>(result.completed_swaps) /
                               (result.wall_ms / 1000.0)
                         : 0;
  return result;
}

/// The hot arm and the oracle arm must agree on every deterministic
/// output. Returns false (and reports) on any divergence.
bool CheckEquivalence(const CellResult& hot, const CellResult& oracle) {
  auto fail = [](const char* what) {
    std::fprintf(stderr, "openworld equivalence: %s diverged\n", what);
    return false;
  };
  if (hot.fingerprint != oracle.fingerprint) return fail("head fingerprint");
  if (hot.total_evals != oracle.total_evals) return fail("pow eval count");
  if (hot.offered_swaps != oracle.offered_swaps) return fail("offered swaps");
  if (hot.completed_swaps != oracle.completed_swaps) {
    return fail("completed swaps");
  }
  if (hot.blocks_submitted != oracle.blocks_submitted) {
    return fail("block count");
  }
  if (hot.sim_end != oracle.sim_end) return fail("drain tick");
  if (hot.latency_p50 != oracle.latency_p50 ||
      hot.latency_p99 != oracle.latency_p99 ||
      hot.latency_p999 != oracle.latency_p999) {
    return fail("latency percentiles");
  }
  return true;
}

}  // namespace
}  // namespace ac3

int main(int argc, char** argv) {
  using namespace ac3;

  bench::Options context = bench::Options::Parse(argc, argv);
  if (context.exit_early) return context.exit_code;
  const uint64_t seed = context.SeedOr(424242);

  // arrival-rate × account-universe × process grid. The 2M-account cells
  // are the "millions of users" claim: the universe costs nothing until
  // Zipf traffic touches an account (lazy wallet materialization).
  std::vector<CellConfig> grid;
  if (context.smoke) {
    grid.push_back(CellConfig{100.0, 10'000, sim::ArrivalProcess::kPoisson,
                              /*horizon_ms=*/2'000, /*difficulty_bits=*/8});
    grid.push_back(CellConfig{100.0, 2'000'000, sim::ArrivalProcess::kBursty,
                              /*horizon_ms=*/2'000, /*difficulty_bits=*/8});
  } else {
    for (double rate : {250.0, 1'000.0}) {
      for (uint64_t accounts : {10'000ull, 2'000'000ull}) {
        for (sim::ArrivalProcess process :
             {sim::ArrivalProcess::kPoisson, sim::ArrivalProcess::kBursty}) {
          grid.push_back(CellConfig{rate, accounts, process,
                                    /*horizon_ms=*/20'000,
                                    /*difficulty_bits=*/12});
        }
      }
    }
  }

  // The committed envelope declares this ceiling; check_bench_floor.py
  // asserts a fresh run's wall.peak_rss_bytes stays under the *committed*
  // results.rss_ceiling_bytes.
  constexpr uint64_t kRssCeilingBytes = 1536ull * 1024 * 1024;

  benchutil::PrintHeader(
      "Open-world traffic — sustained swaps/sec through batched ingestion,\n"
      "shared block templates and full-lane multi-miner PoW (hot vs oracle "
      "self-check)");

  std::printf("%8s | %9s | %8s | %8s | %9s | %7s | %7s | %8s\n", "rate/s",
              "accounts", "process", "offered", "completed", "p50 ms",
              "p999 ms", "sim sw/s");
  benchutil::PrintRule(84);

  bool equivalence_ok = true;
  std::vector<CellResult> cells;
  for (size_t i = 0; i < grid.size(); ++i) {
    CellResult hot = RunCell(grid[i], seed, /*oracle=*/false);
    if (i == 0) {
      // The serial-oracle probe rides on the first cell only: the batched
      // paths don't change shape with cell size, the traffic does.
      CellResult oracle = RunCell(grid[i], seed, /*oracle=*/true);
      equivalence_ok = CheckEquivalence(hot, oracle) && equivalence_ok;
    }
    std::printf("%8.0f | %9llu | %8s | %8llu | %9llu | %7lld | %7lld | %8.0f\n",
                hot.config.arrivals_per_sec,
                static_cast<unsigned long long>(hot.config.accounts),
                ProcessName(hot.config.process),
                static_cast<unsigned long long>(hot.offered_swaps),
                static_cast<unsigned long long>(hot.completed_swaps),
                static_cast<long long>(hot.latency_p50),
                static_cast<long long>(hot.latency_p999),
                hot.sim_swaps_per_sec);
    cells.push_back(std::move(hot));
  }

  const size_t peak_rss = ReadPeakRssBytes();
  std::printf("\npeak RSS %.1f MiB (declared ceiling %.0f MiB) — "
              "hot vs oracle: %s\n",
              static_cast<double>(peak_rss) / (1024.0 * 1024.0),
              static_cast<double>(kRssCeilingBytes) / (1024.0 * 1024.0),
              equivalence_ok ? "identical" : "DIVERGED");

  if (!equivalence_ok) {
    std::fprintf(stderr,
                 "openworld: batched pipeline diverged from the serial "
                 "oracle\n");
    return 1;
  }
  if (peak_rss > kRssCeilingBytes) {
    std::fprintf(stderr,
                 "openworld: peak RSS %zu exceeds the declared ceiling %llu\n",
                 peak_rss, static_cast<unsigned long long>(kRssCeilingBytes));
    return 1;
  }

  runner::Json result_cells = runner::Json::Array();
  runner::Json wall_cells = runner::Json::Array();
  for (const CellResult& cell : cells) {
    runner::Json entry = runner::Json::Object();
    entry.Set("arrivals_per_sec", cell.config.arrivals_per_sec);
    entry.Set("accounts", cell.config.accounts);
    entry.Set("process", ProcessName(cell.config.process));
    entry.Set("horizon_ms", cell.config.horizon_ms);
    entry.Set("difficulty_bits", cell.config.difficulty_bits);
    entry.Set("offered_swaps", cell.offered_swaps);
    entry.Set("completed_swaps", cell.completed_swaps);
    entry.Set("txs_submitted", cell.txs_submitted);
    entry.Set("blocks_submitted", cell.blocks_submitted);
    entry.Set("total_evals", cell.total_evals);
    entry.Set("sim_end_ms", cell.sim_end);
    entry.Set("sim_swaps_per_sec", cell.sim_swaps_per_sec);
    entry.Set("latency_p50_ms", cell.latency_p50);
    entry.Set("latency_p99_ms", cell.latency_p99);
    entry.Set("latency_p999_ms", cell.latency_p999);
    entry.Set("fingerprint", cell.fingerprint);
    result_cells.Push(std::move(entry));

    runner::Json wall_entry = runner::Json::Object();
    wall_entry.Set("arrivals_per_sec", cell.config.arrivals_per_sec);
    wall_entry.Set("accounts", cell.config.accounts);
    wall_entry.Set("process", ProcessName(cell.config.process));
    wall_entry.Set("wall_ms", cell.wall_ms);
    wall_entry.Set("wall_swaps_per_sec", cell.wall_swaps_per_sec);
    wall_cells.Push(std::move(wall_entry));
  }

  runner::Json results = runner::Json::Object();
  results.Set("cells", std::move(result_cells));
  results.Set("equivalence_checked", true);
  results.Set("equivalence_ok", equivalence_ok);
  results.Set("rss_ceiling_bytes", kRssCeilingBytes);

  runner::Json wall = runner::Json::Object();
  wall.Set("cells", std::move(wall_cells));
  wall.Set("peak_rss_bytes", peak_rss);

  auto written = runner::WriteBenchJson(context, "openworld",
                                        std::move(results), std::move(wall));
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.status().ToString().c_str());
    return 1;
  }
  return 0;
}
