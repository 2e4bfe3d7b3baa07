// Golden determinism: the engine's domain outputs are pinned to exact
// pre-refactor values, so any perf work on the hot paths (visible-head
// tracking, copy-on-write ledger state, midstate PoW, mempool indexing)
// is provably behavior-preserving. Four fingerprints are pinned:
//
//  * a manually-mined chain (assembly + validation + ledger execution):
//    the head block hash after 60 blocks x 4 funded transfers;
//  * a Poisson mining simulation (visible-head selection under gossip
//    delays and forks): the head hash and fork count at height 200;
//  * a full protocol sweep (herlihy / ac3tw / ac3wn worlds run to their
//    verdicts): a SHA-256 over the serialized outcome + aggregate JSON,
//    identical on 1 thread and on 4;
//  * the open-world traffic generator: a SHA-256 over (arrival, chain
//    slot, transaction id) of every transaction one Poisson and one
//    bursty stream emit in their first 2 s.
//
// If an intentional semantic change ever invalidates these, the failure
// message prints the new value to re-pin — but for a perf PR, a mismatch
// here means the optimization changed behavior and must be fixed.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/chain/blockchain.h"
#include "src/chain/wallet.h"
#include "src/core/environment.h"
#include "src/crypto/hash256.h"
#include "src/runner/sweep_runner.h"
#include "src/sim/workload.h"

namespace ac3 {
namespace {

// ---- golden values (pinned from the pre-refactor engine) -------------------

constexpr char kChainBuildHeadHash[] =
    "059d9117eef71ecf146919c7d2be43f61d5917f6bd344c4c4b1ac2c230ae9339";
constexpr char kMiningSimHeadHash[] =
    "0ef05f39fb0a3c791adbe6c87a6baefdf83047b889c90cad26c0f404683790f7";
constexpr size_t kMiningSimBlocksStored = 213;
// Re-pinned for the reactive protocol substrate (PR 3): engines now step on
// block-arrival / connectivity / timer wakes instead of a fixed 20 ms poll,
// so every protocol action lands on a different (coarser) event schedule
// and outcomes carry topology/size/sim_events fields. The chain-layer
// goldens above are untouched — the chain, mining, and ledger hot paths are
// bit-for-bit identical; only the engines' action timing moved.
constexpr char kSweepFingerprint[] =
    "22e7025e2f7207747862268faadcf48f438278e53a21ee89dec7d59de93c2edc";
// Pinned from the closure-delivery engines immediately BEFORE the typed
// protocol-message migration, over all four engines (quorum included, on
// the 3-party ring where its majority quorum is meaningful). The migration
// must keep this fingerprint bit-for-bit: at zero loss/duplication the
// typed path draws the same latency stream and schedules the same events
// as the closure oracle.
constexpr char kFourEngineSweepFingerprint[] =
    "5947e6f83c396242e20b321350f7a7fb5332dda082a5c6dbf9f335e058fb3c9d";
// Pinned while the generator's fees, amounts, faucet lanes, key seeds, Zipf
// exponent and burst multiplier were WorkloadConfig fields: as constants
// they must emit the same stream.
constexpr char kPoissonWorkloadStream[] =
    "000708debb9f73a268b5c336e403bc47c65a2438b847103535c365ed63653695";
constexpr char kBurstyWorkloadStream[] =
    "ded1cfbeb52d138c3d12aa9dd17cdafff7be6e729889dbfff9ecfbb12de2ad50";

// ---- scenario 1: manual chain build ---------------------------------------

std::string BuildChainHeadHash() {
  constexpr int kUsers = 4;
  constexpr uint64_t kBlocks = 60;
  chain::ChainParams params = chain::TestChainParams();
  params.difficulty_bits = 4;
  std::vector<crypto::KeyPair> keys;
  std::vector<chain::TxOutput> allocations;
  for (int i = 0; i < kUsers; ++i) {
    keys.push_back(crypto::KeyPair::FromSeed(7000 + static_cast<uint64_t>(i)));
    allocations.push_back(chain::TxOutput{100'000, keys.back().public_key()});
  }
  chain::Blockchain chain(params, allocations);
  std::vector<chain::Wallet> wallets;
  for (int i = 0; i < kUsers; ++i) wallets.emplace_back(keys[i], chain.id());
  const crypto::KeyPair miner = crypto::KeyPair::FromSeed(6999);

  Rng rng(2025);
  TimePoint now = 0;
  uint64_t nonce = 1;
  for (uint64_t b = 0; b < kBlocks; ++b) {
    now += 100;
    std::vector<chain::Transaction> txs;
    for (int j = 0; j < 4; ++j) {
      const int from = static_cast<int>((b + static_cast<uint64_t>(j)) %
                                        kUsers);
      auto tx = wallets[static_cast<size_t>(from)].BuildTransfer(
          chain.StateAtHead(),
          keys[static_cast<size_t>((from + 1) % kUsers)].public_key(),
          /*amount=*/10, /*fee=*/1, nonce++);
      if (tx.ok()) txs.push_back(*tx);
    }
    auto block = chain.AssembleBlock(chain.head()->hash, txs,
                                     miner.public_key(), now, &rng);
    EXPECT_TRUE(block.ok()) << block.status().ToString();
    if (!block.ok()) break;
    Status submitted = chain.SubmitBlock(*block, now);
    EXPECT_TRUE(submitted.ok()) << submitted.ToString();
  }
  EXPECT_EQ(chain.height(), kBlocks);
  return chain.head()->hash.ToHex();
}

TEST(GoldenDeterminismTest, ChainBuildHeadHashMatchesPinned) {
  EXPECT_EQ(BuildChainHeadHash(), kChainBuildHeadHash)
      << "chain-build domain output drifted; if intentional, re-pin.";
}

// ---- scenario 2: Poisson mining with gossip-delayed views ------------------

struct MiningSimResult {
  std::string head_hash;
  size_t blocks_stored = 0;
};

MiningSimResult RunMiningSim() {
  chain::ChainParams params = chain::TestChainParams();
  params.difficulty_bits = 4;
  params.block_interval = Milliseconds(200);
  core::Environment env(/*seed=*/7);
  chain::MiningConfig mining;
  mining.miner_count = 5;
  mining.max_propagation_delay = Milliseconds(40);
  const chain::ChainId id = env.AddChain(params, {}, mining);
  env.StartMining();
  const chain::Blockchain* chain = env.blockchain(id);
  Status ran = env.sim()->RunUntilCondition(
      [&]() { return chain->height() >= 200; }, Hours(2));
  EXPECT_TRUE(ran.ok()) << ran.ToString();
  env.StopMining();
  return MiningSimResult{chain->head()->hash.ToHex(), chain->block_count()};
}

TEST(GoldenDeterminismTest, MiningSimHeadHashMatchesPinned) {
  MiningSimResult result = RunMiningSim();
  EXPECT_EQ(result.head_hash, kMiningSimHeadHash)
      << "mining-sim head drifted (" << result.blocks_stored
      << " blocks stored); if intentional, re-pin.";
  EXPECT_EQ(result.blocks_stored, kMiningSimBlocksStored)
      << "fork count drifted; visible-head selection changed.";
}

// ---- scenario 3: protocol sweep, thread-invariant --------------------------

std::string GridFingerprint(const runner::SweepGridConfig& config,
                            int threads) {
  std::vector<runner::RunOutcome> outcomes =
      runner::SweepRunner(threads).RunGrid(config);
  runner::Json doc = runner::Json::Object();
  runner::Json arr = runner::Json::Array();
  for (const runner::RunOutcome& outcome : outcomes) {
    arr.Push(runner::OutcomeToJson(outcome));
  }
  doc.Set("outcomes", std::move(arr));
  doc.Set("aggregate", runner::AggregateToJson(
                           runner::Aggregate(outcomes, /*delta_ms=*/2000.0)));
  return crypto::Hash256::OfString(doc.Serialize()).ToHex();
}

std::string SweepFingerprint(int threads) {
  runner::SweepGridConfig config;
  config.protocols = {runner::Protocol::kHerlihy, runner::Protocol::kAc3tw,
                      runner::Protocol::kAc3wn};
  config.topologies = {runner::Topology::kRing};
  config.sizes = {2};
  config.failures = {runner::FailureMode::kNone};
  config.seeds = {11};
  config.deadline = Minutes(20);
  return GridFingerprint(config, threads);
}

std::string FourEngineFingerprint(int threads) {
  runner::SweepGridConfig config;
  config.protocols = {runner::Protocol::kHerlihy, runner::Protocol::kAc3tw,
                      runner::Protocol::kAc3wn, runner::Protocol::kQuorum};
  config.topologies = {runner::Topology::kRing};
  config.sizes = {3};
  config.failures = {runner::FailureMode::kNone};
  config.seeds = {11};
  config.deadline = Minutes(20);
  return GridFingerprint(config, threads);
}

TEST(GoldenDeterminismTest, SweepOutputsMatchPinnedGolden) {
  EXPECT_EQ(SweepFingerprint(/*threads=*/1), kSweepFingerprint)
      << "swap reports / aggregates drifted; if intentional, re-pin.";
}

TEST(GoldenDeterminismTest, SweepOutputsThreadInvariant) {
  EXPECT_EQ(SweepFingerprint(/*threads=*/4), kSweepFingerprint)
      << "thread count changed domain outputs — determinism bug.";
}

TEST(GoldenDeterminismTest, FourEngineSweepMatchesPinnedGolden) {
  EXPECT_EQ(FourEngineFingerprint(/*threads=*/1), kFourEngineSweepFingerprint)
      << "four-engine outputs drifted from the pre-migration pin; the "
         "typed message layer must be behavior-preserving at zero faults.";
}

TEST(GoldenDeterminismTest, FourEngineSweepThreadInvariant) {
  EXPECT_EQ(FourEngineFingerprint(/*threads=*/4), kFourEngineSweepFingerprint)
      << "thread count changed domain outputs — determinism bug.";
}

// ---- scenario 4: the open-world traffic generator ---------------------------

/// SHA-256 over (arrival, chain slot, transaction id) of every transaction
/// `config`'s generator emits by 2 s, bound to real genesis chains as
/// the benchmark binds it.
std::string WorkloadStreamDigest(const sim::WorkloadConfig& config,
                                 uint64_t seed) {
  sim::WorkloadGenerator gen(config, seed);
  std::vector<std::unique_ptr<chain::Blockchain>> chains;
  for (size_t c = 0; c < config.chains; ++c) {
    chain::ChainParams params = chain::TestChainParams();
    params.id = static_cast<chain::ChainId>(c + 1);
    chains.push_back(std::make_unique<chain::Blockchain>(
        params, gen.GenesisAllocations(c)));
    gen.BindChain(c, chains[c]->id(), chains[c]->genesis_tx());
  }
  const sim::WorkloadBatch batch = gen.NextBatch(2'000);
  EXPECT_GT(batch.txs.size(), 500u);
  Bytes stream;
  for (const sim::GeneratedTx& gtx : batch.txs) {
    const uint64_t head[] = {static_cast<uint64_t>(gtx.arrival), gtx.chain};
    for (const uint64_t field : head) {
      for (int byte = 0; byte < 8; ++byte) {
        stream.push_back(static_cast<uint8_t>(field >> (8 * byte)));
      }
    }
    const crypto::Hash256& id = gtx.tx.Id();
    stream.insert(stream.end(), id.data().begin(), id.data().end());
  }
  return crypto::Hash256::Of(stream).ToHex();
}

TEST(GoldenDeterminismTest, WorkloadStreamsMatchPinned) {
  sim::WorkloadConfig poisson;
  EXPECT_EQ(WorkloadStreamDigest(poisson, /*seed=*/340001),
            kPoissonWorkloadStream)
      << "Poisson traffic stream drifted; if intentional, re-pin.";

  sim::WorkloadConfig bursty;
  bursty.process = sim::ArrivalProcess::kBursty;
  bursty.arrivals_per_sec = 400.0;
  bursty.burst_on_mean_ms = 500.0;
  bursty.burst_off_mean_ms = 1'500.0;
  EXPECT_EQ(WorkloadStreamDigest(bursty, /*seed=*/340002),
            kBurstyWorkloadStream)
      << "bursty traffic stream drifted; if intentional, re-pin.";
}

}  // namespace
}  // namespace ac3
