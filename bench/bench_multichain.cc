// Many-chain world-state benchmark: the sharded ChainIndex under a grid of
// chains × accounts × transactions. Each cell builds an independent fleet
// of blockchains (transfers + an HTLC deploy/redeem per chain so the
// contract-call index carries real traffic), then measures sustained
// random lookups — FindTx, FindCall, entry Get/Contains — round-robin
// across the fleet. The headline claims this harness guards:
//
//   * per-op lookup cost stays flat as the chain count grows (hash-sharded
//     indexes, not a scan over chains or entries);
//   * peak RSS stays under the declared ceiling (slab-backed nodes, no
//     per-node heap overhead explosion);
//   * the sharded index answers every query exactly like the single-map
//     oracle mode — checked in-process here, and the process exits
//     non-zero on any divergence.
//
// Determinism contract: everything under "results" (per-cell fingerprints
// over head hashes, block/tx counts, the equivalence verdict, the declared
// RSS ceiling) is a pure function of the seeds. Ops/sec, wall times and
// the measured peak RSS are machine-dependent and live under "wall".

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/chain/blockchain.h"
#include "src/chain/wallet.h"
#include "src/contracts/htlc_contract.h"
#include "src/crypto/hash256.h"
#include "src/runner/bench_output.h"

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

struct CellConfig {
  int chains = 0;
  int accounts = 0;
  int txs_per_block = 0;
  int blocks = 0;
};

/// One populated blockchain plus the handles the lookup loop samples.
struct ChainFixture {
  std::unique_ptr<chain::Blockchain> chain;
  std::vector<crypto::Hash256> tx_ids;
  crypto::Hash256 contract_id;
};

constexpr char kSecret[] = {4, 8, 15, 16, 23, 42};

Bytes SecretBytes() {
  return Bytes(kSecret, kSecret + sizeof(kSecret));
}

/// Builds one chain of the fleet: HTLC deploy (block 1) + redeem (block 2),
/// then round-robin transfers. When `twin` is non-null the exact same
/// blocks are submitted to it as well (the sharded-vs-oracle probe).
ChainFixture BuildChain(const CellConfig& cell, int chain_seq,
                        chain::Blockchain* twin) {
  chain::ChainParams params = chain::TestChainParams();
  params.id = static_cast<chain::ChainId>(chain_seq + 1);
  params.difficulty_bits = 2;  // ~4 nonce evals/block: indexing dominates.
  params.max_block_txs = 64;

  const uint64_t seed_base =
      100'000 + static_cast<uint64_t>(chain_seq) * 1'000;
  std::vector<crypto::KeyPair> keys;
  std::vector<chain::TxOutput> allocations;
  for (int a = 0; a < cell.accounts; ++a) {
    keys.push_back(crypto::KeyPair::FromSeed(seed_base +
                                             static_cast<uint64_t>(a)));
    allocations.push_back(chain::TxOutput{1'000'000, keys.back().public_key()});
  }
  const crypto::KeyPair miner = crypto::KeyPair::FromSeed(seed_base + 999);

  ChainFixture fixture;
  fixture.chain = std::make_unique<chain::Blockchain>(params, allocations);
  chain::Blockchain& bc = *fixture.chain;
  std::vector<chain::Wallet> wallets;
  std::vector<uint64_t> nonces(static_cast<size_t>(cell.accounts), 1);
  for (int a = 0; a < cell.accounts; ++a) wallets.emplace_back(keys[a], bc.id());

  Rng rng(seed_base);
  TimePoint now = 0;
  auto mine = [&](const std::vector<chain::Transaction>& txs) -> bool {
    now += 100;
    auto block =
        bc.AssembleBlock(bc.head()->hash, txs, miner.public_key(), now, &rng);
    if (!block.ok() || !bc.SubmitBlock(*block, now).ok()) return false;
    if (twin != nullptr && !twin->SubmitBlock(*block, now).ok()) return false;
    for (const chain::Transaction& tx : block->txs) {
      fixture.tx_ids.push_back(tx.Id());
    }
    return true;
  };

  // Block 1: HTLC deploy (account 0 locks for account 1).
  auto deploy = wallets[0].BuildDeploy(
      bc.StateAtHead(), contracts::kHtlcKind,
      contracts::HtlcContract::MakeInitPayload(
          keys[1].public_key(), crypto::Hash256::Of(SecretBytes()),
          Minutes(60)),
      /*locked_value=*/500, bc.params().deploy_fee, nonces[0]++);
  if (!deploy.ok() || !mine({*deploy})) {
    std::fprintf(stderr, "multichain: deploy failed on chain %d\n", chain_seq);
    std::exit(1);
  }
  fixture.contract_id = deploy->Id();
  // Block 2: redeem reveals the secret.
  auto redeem = wallets[1].BuildCall(bc.StateAtHead(), fixture.contract_id,
                                     contracts::kRedeemFunction, SecretBytes(),
                                     /*fee=*/1, nonces[1]++);
  if (!redeem.ok() || !mine({*redeem})) {
    std::fprintf(stderr, "multichain: redeem failed on chain %d\n", chain_seq);
    std::exit(1);
  }
  // Remaining blocks: round-robin transfers.
  for (int b = 2; b < cell.blocks; ++b) {
    std::vector<chain::Transaction> txs;
    for (int j = 0; j < cell.txs_per_block; ++j) {
      const size_t from =
          static_cast<size_t>((b + j) % cell.accounts);
      const size_t to = (from + 1) % static_cast<size_t>(cell.accounts);
      auto tx = wallets[from].BuildTransfer(bc.StateAtHead(),
                                            keys[to].public_key(),
                                            /*amount=*/10, /*fee=*/1,
                                            nonces[from]++);
      if (tx.ok()) txs.push_back(*tx);
    }
    if (!mine(txs)) {
      std::fprintf(stderr, "multichain: mining failed on chain %d\n",
                   chain_seq);
      std::exit(1);
    }
  }
  return fixture;
}

/// The sharded chain and the oracle twin must answer every ledger query
/// identically. Returns false (and reports) on any divergence.
bool CheckEquivalence(const ChainFixture& fixture,
                      const chain::Blockchain& oracle) {
  const chain::Blockchain& sharded = *fixture.chain;
  auto fail = [](const char* what) {
    std::fprintf(stderr, "multichain equivalence: %s diverged\n", what);
    return false;
  };
  if (sharded.head()->hash != oracle.head()->hash) return fail("head hash");
  if (sharded.block_count() != oracle.block_count()) {
    return fail("block count");
  }
  if (sharded.index().EntryCount() != oracle.index().EntryCount()) {
    return fail("entry count");
  }
  for (const crypto::Hash256& tx_id : fixture.tx_ids) {
    const auto a = sharded.FindTx(tx_id);
    const auto b = oracle.FindTx(tx_id);
    if (a.has_value() != b.has_value()) return fail("FindTx presence");
    if (a.has_value() &&
        (a->entry->hash != b->entry->hash || a->index != b->index)) {
      return fail("FindTx location");
    }
    if (sharded.index().OccurrencesOf(tx_id).size() !=
        oracle.index().OccurrencesOf(tx_id).size()) {
      return fail("occurrence list");
    }
  }
  for (bool require_success : {false, true}) {
    const auto a = sharded.FindCall(fixture.contract_id,
                                    contracts::kRedeemFunction,
                                    require_success);
    const auto b = oracle.FindCall(fixture.contract_id,
                                   contracts::kRedeemFunction,
                                   require_success);
    if (a.has_value() != b.has_value()) return fail("FindCall presence");
    if (a.has_value() && a->entry->hash != b->entry->hash) {
      return fail("FindCall entry");
    }
  }
  return true;
}

struct CellRun {
  CellConfig config;
  // Deterministic.
  uint64_t total_blocks = 0;
  uint64_t total_txs = 0;
  std::string fingerprint;  ///< Hash over every chain's head hash.
  // Machine-dependent.
  double build_ms = 0;
  double lookup_ms = 0;
  uint64_t lookups = 0;
  uint64_t lookup_hits = 0;  ///< Deterministic (seeded sampling).
  double lookup_ops_per_sec = 0;
  double ns_per_lookup = 0;
};

CellRun RunCell(const CellConfig& cell, uint64_t lookup_ops,
                bool check_equivalence, bool* equivalence_ok) {
  CellRun run;
  run.config = cell;

  const Clock::time_point build_t0 = Clock::now();
  // The oracle twin shadows chain 0 of the cell when requested: a
  // single-map ChainIndex fed the identical block stream.
  std::unique_ptr<chain::Blockchain> oracle;
  std::vector<ChainFixture> fleet;
  fleet.reserve(static_cast<size_t>(cell.chains));
  for (int c = 0; c < cell.chains; ++c) {
    chain::Blockchain* twin = nullptr;
    if (check_equivalence && c == 0) {
      chain::ChainParams params = chain::TestChainParams();
      params.id = 1;
      params.difficulty_bits = 2;
      params.max_block_txs = 64;
      std::vector<chain::TxOutput> allocations;
      for (int a = 0; a < cell.accounts; ++a) {
        allocations.push_back(chain::TxOutput{
            1'000'000,
            crypto::KeyPair::FromSeed(100'000 + static_cast<uint64_t>(a))
                .public_key()});
      }
      chain::ChainIndex::Options oracle_options;
      oracle_options.oracle = true;
      oracle = std::make_unique<chain::Blockchain>(params, allocations,
                                                   oracle_options);
      twin = oracle.get();
    }
    fleet.push_back(BuildChain(cell, c, twin));
  }
  run.build_ms = ElapsedMs(build_t0);

  if (oracle != nullptr) {
    *equivalence_ok = CheckEquivalence(fleet[0], *oracle) && *equivalence_ok;
  }

  // Deterministic cell witnesses.
  Bytes head_bytes;
  for (const ChainFixture& fixture : fleet) {
    run.total_blocks += fixture.chain->block_count();
    run.total_txs += fixture.tx_ids.size();
    const auto& digest = fixture.chain->head()->hash.data();
    head_bytes.insert(head_bytes.end(), digest.begin(), digest.end());
  }
  run.fingerprint = crypto::Hash256::Of(head_bytes).ToHex();

  // Sustained lookups, round-robin across the fleet. The sampling is
  // seeded, so the hit count is deterministic; only the rate is wall.
  Rng rng(31337);
  run.lookups = lookup_ops;
  const Clock::time_point lookup_t0 = Clock::now();
  for (uint64_t op = 0; op < lookup_ops; ++op) {
    const ChainFixture& fixture =
        fleet[static_cast<size_t>(op) % fleet.size()];
    const chain::Blockchain& bc = *fixture.chain;
    switch (rng.NextU64() % 4) {
      case 0: {  // Canonical tx lookup (hit).
        const crypto::Hash256& tx_id =
            fixture.tx_ids[rng.NextU64() % fixture.tx_ids.size()];
        if (bc.FindTx(tx_id).has_value()) ++run.lookup_hits;
        break;
      }
      case 1: {  // Miss: a hash that indexes nothing.
        crypto::Hash256 absent;
        if (!bc.index().Contains(absent)) ++run.lookup_hits;
        break;
      }
      case 2:  // Newest canonical contract call.
        if (bc.FindCall(fixture.contract_id, contracts::kRedeemFunction,
                        /*require_success=*/true)
                .has_value()) {
          ++run.lookup_hits;
        }
        break;
      default:  // Block-entry fetch by hash.
        if (bc.Get(bc.head()->hash) != nullptr) ++run.lookup_hits;
        break;
    }
  }
  run.lookup_ms = ElapsedMs(lookup_t0);
  run.lookup_ops_per_sec =
      run.lookup_ms > 0
          ? static_cast<double>(run.lookups) / (run.lookup_ms / 1000.0)
          : 0;
  run.ns_per_lookup = run.lookups > 0
                          ? run.lookup_ms * 1e6 /
                                static_cast<double>(run.lookups)
                          : 0;
  return run;
}

}  // namespace
}  // namespace ac3

int main(int argc, char** argv) {
  using namespace ac3;

  bench::Options context = bench::Options::Parse(argc, argv);
  if (context.exit_early) return context.exit_code;

  // chains × accounts grid (txs/block and depth fixed per axis point so
  // the chains axis is the only thing varying along a row — that is what
  // makes "flat per-op cost vs chain count" legible in the output).
  std::vector<CellConfig> grid;
  if (context.smoke) {
    for (int chains : {2, 8}) {
      grid.push_back(CellConfig{chains, /*accounts=*/4, /*txs_per_block=*/2,
                                /*blocks=*/4});
    }
  } else {
    for (int chains : {4, 32, 128, 256}) {
      for (int accounts : {4, 16}) {
        grid.push_back(CellConfig{chains, accounts, /*txs_per_block=*/4,
                                  /*blocks=*/10});
      }
    }
  }
  const uint64_t lookup_ops = context.smoke ? 20'000 : 200'000;

  // The committed envelope declares this ceiling; check_bench_floor.py
  // asserts a fresh run's measured wall.peak_rss_bytes stays under the
  // *committed* results.rss_ceiling_bytes.
  constexpr uint64_t kRssCeilingBytes = 1536ull * 1024 * 1024;

  benchutil::PrintHeader(
      "Many-chain world state — sustained ledger-query ops/sec and peak RSS\n"
      "across a chains x accounts grid (sharded ChainIndex vs oracle "
      "self-check)");

  std::printf("%7s | %8s | %9s | %9s | %12s | %10s\n", "chains", "accounts",
              "blocks", "build ms", "lookup ops/s", "ns/lookup");
  benchutil::PrintRule(72);

  bool equivalence_ok = true;
  std::vector<CellRun> runs;
  for (size_t i = 0; i < grid.size(); ++i) {
    // The oracle probe rides on the first (smallest) cell only: the index
    // semantics don't vary with fleet size, the fleet does.
    CellRun run = RunCell(grid[i], lookup_ops, /*check_equivalence=*/i == 0,
                          &equivalence_ok);
    std::printf("%7d | %8d | %9llu | %9.1f | %12.0f | %10.1f\n",
                run.config.chains, run.config.accounts,
                static_cast<unsigned long long>(run.total_blocks),
                run.build_ms, run.lookup_ops_per_sec, run.ns_per_lookup);
    runs.push_back(std::move(run));
  }
  const size_t peak_rss = ReadPeakRssBytes();
  std::printf("\npeak RSS %.1f MiB (declared ceiling %.0f MiB) — "
              "sharded vs oracle: %s\n",
              static_cast<double>(peak_rss) / (1024.0 * 1024.0),
              static_cast<double>(kRssCeilingBytes) / (1024.0 * 1024.0),
              equivalence_ok ? "identical" : "DIVERGED");

  if (!equivalence_ok) {
    std::fprintf(stderr,
                 "multichain: sharded index diverged from the single-map "
                 "oracle\n");
    return 1;
  }
  if (peak_rss > kRssCeilingBytes) {
    std::fprintf(stderr,
                 "multichain: peak RSS %zu exceeds the declared ceiling "
                 "%llu\n",
                 peak_rss, static_cast<unsigned long long>(kRssCeilingBytes));
    return 1;
  }

  runner::Json cells = runner::Json::Array();
  runner::Json wall_cells = runner::Json::Array();
  for (const CellRun& run : runs) {
    runner::Json cell = runner::Json::Object();
    cell.Set("chains", run.config.chains);
    cell.Set("accounts", run.config.accounts);
    cell.Set("txs_per_block", run.config.txs_per_block);
    cell.Set("blocks_per_chain", run.config.blocks);
    cell.Set("total_blocks", run.total_blocks);
    cell.Set("total_txs", run.total_txs);
    cell.Set("lookups", run.lookups);
    cell.Set("lookup_hits", run.lookup_hits);
    cell.Set("fingerprint", run.fingerprint);
    cells.Push(std::move(cell));

    runner::Json wall_cell = runner::Json::Object();
    wall_cell.Set("chains", run.config.chains);
    wall_cell.Set("accounts", run.config.accounts);
    wall_cell.Set("build_ms", run.build_ms);
    wall_cell.Set("lookup_ms", run.lookup_ms);
    wall_cell.Set("lookup_ops_per_sec", run.lookup_ops_per_sec);
    wall_cell.Set("ns_per_lookup", run.ns_per_lookup);
    wall_cells.Push(std::move(wall_cell));
  }

  runner::Json results = runner::Json::Object();
  results.Set("cells", std::move(cells));
  results.Set("equivalence_checked", true);
  results.Set("equivalence_ok", equivalence_ok);
  results.Set("rss_ceiling_bytes", kRssCeilingBytes);

  runner::Json wall = runner::Json::Object();
  wall.Set("cells", std::move(wall_cells));
  wall.Set("peak_rss_bytes", peak_rss);

  if (!bench::WriteEnvelope(context, "multichain",
                            std::move(results), std::move(wall))) {
    return 1;
  }
  return 0;
}
