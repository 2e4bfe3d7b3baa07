// Open-world workload generator tests: seed determinism (bit-for-bit
// replay, horizon-partition invariance), distribution sanity (Zipf rank
// skew, Poisson inter-arrival mean, bursty duty windows), and end-to-end
// validity — generated traffic must execute and fully include on real
// chains built from the generator's genesis allocations.

#include "src/sim/workload.h"

#include <cmath>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/chain/blockchain.h"
#include "src/chain/mempool.h"

namespace ac3::sim {
namespace {

/// The synthetic coinbase a Blockchain builds from the same allocations —
/// lets pure generator tests bind chain slots without a chain instance.
chain::Transaction FakeGenesis(std::vector<chain::TxOutput> allocations,
                               chain::ChainId id) {
  chain::MutableTransaction tx;
  tx.type = chain::TxType::kCoinbase;
  tx.chain_id = id;
  tx.outputs = std::move(allocations);
  tx.nonce = 0;
  return chain::Transaction(std::move(tx));
}

void BindAll(WorkloadGenerator* gen) {
  for (size_t c = 0; c < gen->config().chains; ++c) {
    gen->BindChain(c, static_cast<chain::ChainId>(c),
                   FakeGenesis(gen->GenesisAllocations(c),
                               static_cast<chain::ChainId>(c)));
  }
}

void ExpectBatchesIdentical(const WorkloadBatch& a, const WorkloadBatch& b) {
  ASSERT_EQ(a.txs.size(), b.txs.size());
  for (size_t i = 0; i < a.txs.size(); ++i) {
    EXPECT_EQ(a.txs[i].arrival, b.txs[i].arrival) << "tx " << i;
    EXPECT_EQ(a.txs[i].chain, b.txs[i].chain) << "tx " << i;
    EXPECT_EQ(Encode(a.txs[i].tx), Encode(b.txs[i].tx)) << "tx " << i;
  }
  ASSERT_EQ(a.swaps.size(), b.swaps.size());
  for (size_t i = 0; i < a.swaps.size(); ++i) {
    EXPECT_EQ(a.swaps[i].arrival, b.swaps[i].arrival) << "swap " << i;
    EXPECT_EQ(a.swaps[i].leg_a_id, b.swaps[i].leg_a_id) << "swap " << i;
    EXPECT_EQ(a.swaps[i].leg_b_id, b.swaps[i].leg_b_id) << "swap " << i;
  }
}

TEST(WorkloadTest, SameSeedReplaysBitForBit) {
  WorkloadConfig config;
  config.accounts = 2'000'000;  // Lazy wallets: universe size is free.
  config.arrivals_per_sec = 300.0;
  WorkloadGenerator gen_a(config, 42);
  WorkloadGenerator gen_b(config, 42);
  BindAll(&gen_a);
  BindAll(&gen_b);
  WorkloadBatch batch_a = gen_a.NextBatch(4000);
  WorkloadBatch batch_b = gen_b.NextBatch(4000);
  EXPECT_GT(batch_a.swaps.size(), 100u);
  ExpectBatchesIdentical(batch_a, batch_b);

  WorkloadGenerator gen_c(config, 43);
  BindAll(&gen_c);
  WorkloadBatch batch_c = gen_c.NextBatch(4000);
  bool differs = batch_c.txs.size() != batch_a.txs.size();
  for (size_t i = 0; !differs && i < batch_a.txs.size(); ++i) {
    differs = batch_a.txs[i].tx.Id() != batch_c.txs[i].tx.Id();
  }
  EXPECT_TRUE(differs) << "different seeds produced identical streams";
}

TEST(WorkloadTest, HorizonPartitioningDoesNotChangeTheStream) {
  WorkloadConfig config;
  config.arrivals_per_sec = 250.0;
  config.process = ArrivalProcess::kBursty;  // Partition across phases too.
  WorkloadGenerator whole(config, 7);
  WorkloadGenerator chunked(config, 7);
  BindAll(&whole);
  BindAll(&chunked);
  WorkloadBatch expected = whole.NextBatch(12'000);
  WorkloadBatch stitched;
  for (TimePoint horizon : {1'000, 1'001, 5'500, 12'000}) {
    WorkloadBatch piece = chunked.NextBatch(horizon);
    for (auto& tx : piece.txs) stitched.txs.push_back(std::move(tx));
    for (auto& swap : piece.swaps) stitched.swaps.push_back(std::move(swap));
  }
  ExpectBatchesIdentical(expected, stitched);
  EXPECT_EQ(chunked.swaps_generated(), whole.swaps_generated());
}

TEST(WorkloadTest, ZipfRanksAreHeavyTailedAndInRange) {
  WorkloadConfig config;
  config.accounts = 1'000'000;
  WorkloadGenerator gen(config, 5);
  Rng rng(1234);
  constexpr int kDraws = 20'000;
  int top10 = 0;
  int deep_tail = 0;
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t rank = gen.SampleZipf(&rng);
    ASSERT_LT(rank, config.accounts);
    if (rank < 10) ++top10;
    if (rank >= config.accounts / 2) ++deep_tail;
  }
  // s=1.1 over 1M accounts: the head dominates (the inverse CDF puts
  // 0.285 of the draws on the top 10) but the tail still shows (0.024).
  EXPECT_GT(top10, kDraws / 4);
  EXPECT_GT(deep_tail, 0);
  EXPECT_LT(deep_tail, kDraws / 10);
}

TEST(WorkloadTest, PoissonInterArrivalMeanWithinTolerance) {
  WorkloadConfig config;
  config.arrivals_per_sec = 100.0;  // Mean gap 10ms.
  WorkloadGenerator gen(config, 11);
  BindAll(&gen);
  WorkloadBatch batch = gen.NextBatch(60'000);  // ~6000 arrivals.
  ASSERT_GT(batch.swaps.size(), 3000u);
  const double mean_gap =
      static_cast<double>(batch.swaps.back().arrival - batch.swaps[0].arrival) /
      static_cast<double>(batch.swaps.size() - 1);
  EXPECT_NEAR(mean_gap, 10.0, 1.0);  // 10% tolerance at ~6000 samples.
}

TEST(WorkloadTest, BurstyArrivalsStayInsideOnWindowsWithSaneDutyCycle) {
  WorkloadConfig config;
  config.process = ArrivalProcess::kBursty;
  config.arrivals_per_sec = 150.0;
  config.burst_on_mean_ms = 1'000.0;
  config.burst_off_mean_ms = 3'000.0;
  WorkloadGenerator gen(config, 21);
  BindAll(&gen);
  const TimePoint horizon = 120'000;
  WorkloadBatch batch = gen.NextBatch(horizon);
  const auto& windows = gen.burst_windows();
  ASSERT_GT(windows.size(), 10u);

  // Windows are disjoint and ascending.
  for (size_t i = 1; i < windows.size(); ++i) {
    EXPECT_GE(windows[i].first, windows[i - 1].second);
  }
  // Every arrival lies inside a closed on-window or the still-open phase
  // (±1ms for TimePoint rounding).
  const TimePoint open_start =
      windows.empty() ? 0 : windows.back().second;
  for (const SwapRecord& swap : batch.swaps) {
    bool inside = swap.arrival + 1 >= open_start;
    for (const auto& [start, end] : windows) {
      if (swap.arrival + 1 >= start && swap.arrival <= end + 1) {
        inside = true;
        break;
      }
    }
    EXPECT_TRUE(inside) << "arrival " << swap.arrival
                        << " outside every on-window";
  }
  // Duty cycle: on-time fraction near on / (on + off) = 0.25 (loose
  // bounds — ~30 phase pairs of exponential durations are noisy).
  Duration on_total = 0;
  for (const auto& [start, end] : windows) on_total += end - start;
  const double duty = static_cast<double>(on_total) /
                      static_cast<double>(windows.back().second);
  EXPECT_GT(duty, 0.10);
  EXPECT_LT(duty, 0.45);
  // The modulated process still delivers roughly rate * 4 * duty arrivals
  // overall.
  EXPECT_GT(batch.swaps.size(), 1000u);
}

// End-to-end: traffic generated against real chains executes fully — every
// emitted transaction (grants and legs) is eventually included on the
// canonical branch of its chain, through the batched ingestion + assembly
// + batched-PoW production path the open-world bench drives.
TEST(WorkloadTest, GeneratedTrafficFullyIncludesOnRealChains) {
  WorkloadConfig config;
  config.chains = 2;
  config.accounts = 5'000;
  config.arrivals_per_sec = 150.0;
  WorkloadGenerator gen(config, 99);

  chain::ChainParams params = chain::TestChainParams();
  params.difficulty_bits = 4;  // Keep PoW trivial; mining is not the subject.
  params.max_block_txs = 200;
  std::vector<std::unique_ptr<chain::Blockchain>> chains;
  std::vector<chain::Mempool> pools(config.chains);
  for (size_t c = 0; c < config.chains; ++c) {
    chain::ChainParams p = params;
    p.id = static_cast<chain::ChainId>(c);
    p.name = "wl-" + std::to_string(c);
    chains.push_back(std::make_unique<chain::Blockchain>(
        p, gen.GenesisAllocations(c)));
    gen.BindChain(c, chains[c]->id(), chains[c]->genesis_tx());
  }

  WorkloadBatch batch = gen.NextBatch(3'000);
  ASSERT_GT(batch.swaps.size(), 200u);
  std::vector<std::vector<chain::Transaction>> per_chain(config.chains);
  for (const GeneratedTx& gtx : batch.txs) {
    per_chain[gtx.chain].push_back(gtx.tx);
    chains[gtx.chain]->Watch(gtx.tx.Id());  // So the checks below find it.
  }
  for (size_t c = 0; c < config.chains; ++c) {
    auto result = pools[c].SubmitBatch(
        std::span<const chain::Transaction>(per_chain[c]), 3'000);
    EXPECT_EQ(result.accepted, per_chain[c].size())
        << "chain " << c << ": generator emitted a duplicate id";
  }

  Rng mine_rng(5);
  const crypto::KeyPair miner = crypto::KeyPair::FromSeed(31337);
  for (size_t c = 0; c < config.chains; ++c) {
    TimePoint now = 3'000;
    int rounds = 0;
    while (pools[c].size() > 0) {
      ASSERT_LT(rounds++, 100) << "mempool failed to drain on chain " << c;
      now += 100;
      auto candidates =
          pools[c].CandidatePointersAt(now, chain::Mempool::TxFilter());
      ASSERT_FALSE(candidates.empty());
      auto block = chains[c]->AssembleBlock(
          chains[c]->head()->hash,
          std::span<const chain::Transaction* const>(candidates),
          miner.public_key(), now, &mine_rng);
      ASSERT_TRUE(block.ok()) << block.status().ToString();
      ASSERT_GT(block->txs.size(), 1u) << "assembly made no progress";
      ASSERT_TRUE(chains[c]->SubmitBlock(*block, now).ok());
      std::vector<crypto::Hash256> included;
      for (size_t i = 1; i < block->txs.size(); ++i) {
        included.push_back(block->txs[i].Id());
      }
      pools[c].Prune(std::span<const crypto::Hash256>(included));
    }
  }
  for (const GeneratedTx& gtx : batch.txs) {
    EXPECT_TRUE(chains[gtx.chain]->TxOnBranch(*chains[gtx.chain]->head(),
                                              gtx.tx.Id()))
        << "generated tx not included on chain " << gtx.chain;
  }
  // Each swap's two legs landed on the two distinct chains it named.
  for (const SwapRecord& swap : batch.swaps) {
    EXPECT_NE(swap.chain_a, swap.chain_b);
    EXPECT_TRUE(chains[swap.chain_a]->FindTx(swap.leg_a_id).has_value());
    EXPECT_TRUE(chains[swap.chain_b]->FindTx(swap.leg_b_id).has_value());
  }
}

}  // namespace
}  // namespace ac3::sim
