// Engineering micro-benchmarks (google-benchmark): the blockchain
// substrate — proof-of-work mining/verification, a transfer's sign, seal
// and first verify and a receipt's Merkle leaf, block assembly and full
// validation, block selection, body validation and the ledger commit's
// tree writes at open-world UTXO-set sizes, and Section 4.3 evidence
// construction/verification.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/chain/blockchain.h"
#include "src/chain/pow.h"
#include "src/chain/wallet.h"
#include "src/common/persistent_map.h"
#include "src/contracts/evidence_builder.h"
#include "src/contracts/htlc_contract.h"

namespace ac3::chain {
namespace {

const crypto::KeyPair kAlice = crypto::KeyPair::FromSeed(1);
const crypto::KeyPair kBob = crypto::KeyPair::FromSeed(2);

ChainParams ParamsWithDifficulty(uint32_t bits) {
  ChainParams params = TestChainParams();
  params.difficulty_bits = bits;
  return params;
}

void BM_MineHeader(benchmark::State& state) {
  const uint32_t bits = static_cast<uint32_t>(state.range(0));
  Rng rng(11);
  uint64_t salt = 0;
  for (auto _ : state) {
    BlockHeader header;
    header.chain_id = 0;
    header.height = ++salt;  // Vary the pre-image so each mine is fresh.
    header.difficulty_bits = bits;
    MineHeader(&header, &rng);
    benchmark::DoNotOptimize(header.nonce);
  }
}
BENCHMARK(BM_MineHeader)->Arg(4)->Arg(8)->Arg(12);

// One round of the open world's racing miners: state.range(0) fresh
// headers at 12 bits mined in one MineHeaderBatch, whose search runs on
// the calling thread's worker pool, hence wall time.
void BM_MineHeaderBatch(benchmark::State& state) {
  const size_t width = static_cast<size_t>(state.range(0));
  Rng rng(11);
  uint64_t salt = 0;
  uint64_t evals = 0;
  std::vector<BlockHeader> headers(width);
  std::vector<BlockHeader*> pointers;
  for (BlockHeader& header : headers) pointers.push_back(&header);
  for (auto _ : state) {
    for (BlockHeader& header : headers) {
      header = BlockHeader{};
      header.height = ++salt;  // Vary the pre-image so each mine is fresh.
      header.difficulty_bits = 12;
    }
    for (const uint64_t e :
         MineHeaderBatch(std::span<BlockHeader* const>(pointers), &rng)) {
      evals += e;
    }
    benchmark::DoNotOptimize(headers.data());
    benchmark::ClobberMemory();
  }
  state.counters["evals_per_s"] = benchmark::Counter(
      static_cast<double>(evals), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MineHeaderBatch)->Arg(8)->UseRealTime();

void BM_VerifyPow(benchmark::State& state) {
  Rng rng(12);
  BlockHeader header;
  header.difficulty_bits = 10;
  MineHeader(&header, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CheckProofOfWork(header));
  }
}
BENCHMARK(BM_VerifyPow);

/// The one-input, two-output transfer the workload generator builds,
/// signed.
MutableTransaction SignedTransfer() {
  MutableTransaction tx;
  tx.type = TxType::kTransfer;
  tx.inputs.push_back(OutPoint{crypto::Hash256::OfString("input"), 1});
  tx.outputs = {TxOutput{600, kBob.public_key()},
                TxOutput{399, kAlice.public_key()}};
  tx.fee = 1;
  tx.nonce = 7;
  tx.SignWith(kAlice);
  return tx;
}

/// Per-iteration inputs are made this many at a time with the timer
/// paused, so that every timed iteration gets one no earlier iteration
/// has touched.
constexpr size_t kFreshBatch = 1024;

void BM_SignTransfer(benchmark::State& state) {
  MutableTransaction tx = SignedTransfer();
  for (auto _ : state) {
    ++tx.nonce;  // A new payload, so a new nonce hash, every time.
    tx.SignWith(kAlice);
    benchmark::DoNotOptimize(tx.signature);
  }
}
BENCHMARK(BM_SignTransfer);

/// Sealing: encode, hash, and allocate the shared representation.
void BM_SealTransfer(benchmark::State& state) {
  const MutableTransaction signed_tx = SignedTransfer();
  std::vector<MutableTransaction> fresh;
  size_t next = 0;
  for (auto _ : state) {
    if (next == fresh.size()) {
      state.PauseTiming();
      fresh.assign(kFreshBatch, signed_tx);
      next = 0;
      state.ResumeTiming();
    }
    const Transaction sealed(std::move(fresh[next++]));
    benchmark::DoNotOptimize(sealed.Id());
  }
}
BENCHMARK(BM_SealTransfer);

/// The first VerifySignature on a rep, the one that runs Verify (later
/// calls read the memo).
void BM_VerifyTransferFirst(benchmark::State& state) {
  const MutableTransaction signed_tx = SignedTransfer();
  std::vector<Transaction> fresh;
  size_t next = 0;
  for (auto _ : state) {
    if (next == fresh.size()) {
      state.PauseTiming();
      fresh.clear();
      for (size_t i = 0; i < kFreshBatch; ++i) fresh.emplace_back(signed_tx);
      next = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(fresh[next++].VerifySignature());
  }
}
BENCHMARK(BM_VerifyTransferFirst);

/// A transfer's receipt as ApplyTransaction writes it, hashed into its
/// Merkle leaf.
void BM_ReceiptLeafHash(benchmark::State& state) {
  Receipt receipt;
  receipt.tx_id = Transaction(SignedTransfer()).Id();
  receipt.note = "transfer";
  for (auto _ : state) benchmark::DoNotOptimize(receipt.LeafHash());
}
BENCHMARK(BM_ReceiptLeafHash);

void BM_AssembleAndSubmitBlock(benchmark::State& state) {
  const int txs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Blockchain chain(ParamsWithDifficulty(4),
                     {TxOutput{100000, kAlice.public_key()}});
    Wallet alice(kAlice, chain.id());
    std::vector<Transaction> batch;
    LedgerState scratch = chain.StateAtHead();
    for (int i = 0; i < txs; ++i) {
      auto tx = alice.BuildTransfer(scratch, kBob.public_key(), 10, 1,
                                    static_cast<uint64_t>(i));
      if (tx.ok()) {
        // Apply to scratch so subsequent transfers chain on change outputs.
        LedgerDelta delta(scratch);
        (void)ApplyTransaction(&delta, *tx, BlockEnv{chain.id(), 1, 100});
        delta.CommitTo(&scratch);
        batch.push_back(*tx);
      }
    }
    Rng rng(13);
    state.ResumeTiming();
    auto block = chain.AssembleBlock(chain.head()->hash, batch,
                                     kAlice.public_key(), 100, &rng);
    benchmark::DoNotOptimize(block.ok());
    if (block.ok()) {
      benchmark::DoNotOptimize(chain.SubmitBlock(*block, 100).ok());
    }
  }
}
BENCHMARK(BM_AssembleAndSubmitBlock)->Arg(1)->Arg(8)->Arg(32);

// Block selection and body validation at the UTXO-set sizes the
// open-world workloads reach per chain (24k-28k outputs where the checked
// prefix ends, 76k-142k after a 5 s run). BM_AssembleAndSubmitBlock's
// transfers chain on one change output, so its ledger writes never reach
// a tree of any size.
constexpr int kWideBlockTxs = 512;
/// Outputs per fan-out transaction of the setup block.
constexpr uint32_t kFanOut = 16;

/// A chain of about N unspent outputs and kWideBlockTxs independent
/// signed one-input, two-output transfers spending distinct ones. A
/// genesis's outputs share one id and so sit side by side in key order,
/// where every new key would land beside them; one setup block fans them
/// out, kFanOut outputs under each of N / kFanOut ids, so keys spread over
/// the key space as a workload's do.
struct WideUtxoFixture {
  static ChainParams Params(size_t outputs) {
    ChainParams params = ParamsWithDifficulty(4);
    params.max_block_txs = outputs / kFanOut;
    return params;
  }

  explicit WideUtxoFixture(size_t outputs)
      : chain(Params(outputs),
              std::vector<TxOutput>(outputs / kFanOut,
                                    TxOutput{kFanOut * 1000 + 1,
                                             kAlice.public_key()})) {
    const crypto::Hash256& genesis = chain.genesis_tx().Id();
    std::vector<Transaction> fan;
    for (uint32_t i = 0; i < outputs / kFanOut; ++i) {
      fan.push_back(Signed(OutPoint{genesis, i},
                           std::vector<TxOutput>(
                               kFanOut, TxOutput{1000, kAlice.public_key()}),
                           i));
    }
    Rng rng(15);
    auto setup = chain.AssembleBlock(chain.head()->hash, fan,
                                     kAlice.public_key(), 100, &rng);
    if (!setup.ok() || !chain.SubmitBlock(*setup, 100).ok()) return;
    for (int i = 0; i < kWideBlockTxs; ++i) {
      const Transaction& source = fan[i * fan.size() / kWideBlockTxs];
      const OutPoint spent{source.Id(),
                           static_cast<uint32_t>(rng.NextU64() % kFanOut)};
      txs.push_back(Signed(spent,
                           {TxOutput{600, kBob.public_key()},
                            TxOutput{399, kAlice.public_key()}},
                           fan.size() + i));
    }
    for (const Transaction& tx : txs) candidates.push_back(&tx);

    block.header.chain_id = chain.id();
    block.header.height = chain.height() + 1;
    block.header.prev_hash = chain.head()->hash;
    MutableTransaction coinbase;
    coinbase.type = TxType::kCoinbase;
    coinbase.chain_id = chain.id();
    coinbase.outputs.push_back(TxOutput{
        chain.params().block_reward + kWideBlockTxs, kAlice.public_key()});
    block.txs.emplace_back(std::move(coinbase));
    block.txs.insert(block.txs.end(), txs.begin(), txs.end());
    // Also verifies every signature once; the memo serves the timed runs.
    LedgerState scratch = chain.StateAtHead();
    applies = ApplyBlockBody(&scratch, block, chain.params()).ok();
  }

  static const WideUtxoFixture& For(size_t outputs) {
    // One per size, shared by both benchmarks: the setup signs a
    // transaction per kFanOut outputs.
    static std::map<size_t, std::unique_ptr<WideUtxoFixture>> fixtures;
    std::unique_ptr<WideUtxoFixture>& fixture = fixtures[outputs];
    if (fixture == nullptr) {
      fixture = std::make_unique<WideUtxoFixture>(outputs);
    }
    return *fixture;
  }

  Transaction Signed(const OutPoint& input, std::vector<TxOutput> outputs,
                     uint64_t nonce) const {
    MutableTransaction tx;
    tx.type = TxType::kTransfer;
    tx.chain_id = chain.id();
    tx.inputs.push_back(input);
    tx.outputs = std::move(outputs);
    tx.fee = 1;
    tx.nonce = nonce;
    tx.SignWith(kAlice);
    return Transaction(std::move(tx));
  }

  Blockchain chain;
  std::vector<Transaction> txs;
  std::vector<const Transaction*> candidates;
  /// Coinbase and txs on the head, without roots, receipts or PoW: what
  /// ApplyBlockBody reads.
  Block block;
  bool applies = false;
};

/// Reports the time per transaction over the run.
void SetTimePerTx(benchmark::State& state) {
  state.counters["time_per_tx"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kWideBlockTxs,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

/// A copy of `state` that shares no tree node with it, built in a fixed
/// shuffled order: a tree built in key order packs its leaves unlike one
/// a workload builds from random keys.
LedgerState Unshared(const LedgerState& state) {
  std::vector<std::pair<OutPoint, TxOutput>> utxos;
  for (const auto& [outpoint, output] : state.utxos) {
    utxos.emplace_back(outpoint, output);
  }
  Rng rng(19);
  for (size_t i = utxos.size(); i > 1; --i) {
    std::swap(utxos[i - 1], utxos[rng.NextBelow(i)]);
  }
  LedgerState copy;
  for (const auto& [outpoint, output] : utxos) {
    copy.utxos.Put(outpoint, output);
  }
  for (const auto& [id, contract] : state.contracts) {
    copy.contracts.Put(id, contract);
  }
  copy.liquid_total = state.liquid_total;
  return copy;
}

/// The commit a block extending a tip makes: into the tip's state, handed
/// over and owned alone, so every write lands in place. Each run starts
/// from an unshared copy of the head's state, built and released outside
/// the timing. A block on a checkpoint path-copies instead; one soon
/// after a checkpoint still does for the nodes the two share.
void BM_ValidateBlock(benchmark::State& state) {
  const WideUtxoFixture& fixture =
      WideUtxoFixture::For(static_cast<size_t>(state.range(0)));
  if (!fixture.applies) {
    state.SkipWithError("the block did not apply");
    return;
  }
  const LedgerState parent = fixture.chain.StateAtHead();
  LedgerState tip;
  for (auto _ : state) {
    state.PauseTiming();
    tip = Unshared(parent);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        ApplyBlockBody(&tip, fixture.block, fixture.chain.params()).ok());
  }
  SetTimePerTx(state);
}
BENCHMARK(BM_ValidateBlock)
    ->Arg(25000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

/// Writes per BM_LedgerCommit run, in the ratio of the workloads'
/// one-input, two-output transfers.
constexpr size_t kCommitPuts = 300;
constexpr size_t kCommitErases = 150;

/// N random outpoints, in the random key order they were drawn in, and 64
/// runs of writes to commit into a tree of them: each puts kCommitPuts new
/// outpoints and erases kCommitErases distinct present ones, sorted by key
/// as CommitTo writes them.
struct CommitFixture {
  /// One write of a run: a put, or an erase of a present key.
  struct Write {
    OutPoint key;
    TxOutput value;
    bool put = false;
  };

  explicit CommitFixture(size_t keys) {
    Rng rng(23);
    // 32 random id bytes: no outpoint is drawn twice.
    auto random_outpoint = [&rng] {
      std::array<uint8_t, crypto::Hash256::kSize> id;
      for (uint8_t& byte : id) byte = static_cast<uint8_t>(rng.NextU64());
      return OutPoint{crypto::Hash256(id),
                      static_cast<uint32_t>(rng.NextBelow(4))};
    };
    for (size_t i = 0; i < keys; ++i) {
      entries.emplace_back(random_outpoint(),
                           TxOutput{rng.NextBelow(1000), kAlice.public_key()});
    }
    for (std::vector<Write>& run : runs) {
      while (run.size() < kCommitErases) {
        const auto& entry = entries[rng.NextBelow(entries.size())];
        const bool drawn = std::any_of(
            run.begin(), run.end(),
            [&entry](const Write& write) { return write.key == entry.first; });
        if (!drawn) run.push_back(Write{entry.first, entry.second, false});
      }
      while (run.size() < kCommitPuts + kCommitErases) {
        run.push_back(
            Write{random_outpoint(), TxOutput{600, kBob.public_key()}, true});
      }
      std::sort(run.begin(), run.end(), [](const Write& a, const Write& b) {
        return a.key < b.key;
      });
    }
  }

  static const CommitFixture& For(size_t keys) {
    static std::map<size_t, std::unique_ptr<CommitFixture>> fixtures;
    std::unique_ptr<CommitFixture>& fixture = fixtures[keys];
    if (fixture == nullptr) fixture = std::make_unique<CommitFixture>(keys);
    return *fixture;
  }

  /// A tree of `entries` that shares no node with any other.
  PersistentMap<OutPoint, TxOutput> Tree() const {
    PersistentMap<OutPoint, TxOutput> tree;
    for (const auto& [key, value] : entries) tree.Put(key, value);
    return tree;
  }

  std::vector<std::pair<OutPoint, TxOutput>> entries;
  std::array<std::vector<Write>, 64> runs;
};

/// Applies `run` to `utxos`, or with `undo` its inverse.
void Commit(const std::vector<CommitFixture::Write>& run, bool undo,
            PersistentMap<OutPoint, TxOutput>* utxos) {
  for (const CommitFixture::Write& write : run) {
    if (write.put != undo) {
      utxos->Put(write.key, write.value);
    } else {
      utxos->Erase(write.key);
    }
  }
}

/// The tree writes of LedgerDelta::CommitTo, per write, at two UTXO-set
/// sizes. shared:0 commits into a tree the handle owns alone, as a block
/// extending a tip does, so every write lands in place; the run is undone
/// outside the timing, so each run meets a tree of N keys. shared:1
/// commits into a copy of a tree that a snapshot still holds, as a block
/// extending a checkpoint does, so each written path is copied once; the
/// copy is taken and dropped outside the timing.
void BM_LedgerCommit(benchmark::State& state) {
  const CommitFixture& fixture =
      CommitFixture::For(static_cast<size_t>(state.range(0)));
  const bool shared = state.range(1) != 0;
  PersistentMap<OutPoint, TxOutput> tree = fixture.Tree();
  size_t next = 0;
  for (auto _ : state) {
    const std::vector<CommitFixture::Write>& run = fixture.runs[next];
    next = (next + 1) % fixture.runs.size();
    if (shared) {
      state.PauseTiming();
      PersistentMap<OutPoint, TxOutput> copy = tree;
      state.ResumeTiming();
      Commit(run, /*undo=*/false, &copy);
      benchmark::DoNotOptimize(copy.size());
      state.PauseTiming();
      copy = PersistentMap<OutPoint, TxOutput>();
      state.ResumeTiming();
    } else {
      Commit(run, /*undo=*/false, &tree);
      benchmark::DoNotOptimize(tree.size());
      state.PauseTiming();
      Commit(run, /*undo=*/true, &tree);
      state.ResumeTiming();
    }
  }
  state.counters["time_per_write"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          (kCommitPuts + kCommitErases),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_LedgerCommit)
    ->ArgNames({"keys", "shared"})
    ->ArgsProduct({{25000, 100000}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_SelectBlock(benchmark::State& state) {
  const WideUtxoFixture& fixture =
      WideUtxoFixture::For(static_cast<size_t>(state.range(0)));
  Rng rng(17);
  TimePoint now = 1000;
  auto assemble = [&] {
    // A new `now` each call: the template misses, so selection runs.
    return fixture.chain.AssembleBlock(fixture.chain.head()->hash,
                                       fixture.candidates,
                                       kAlice.public_key(), ++now, &rng,
                                       /*mine=*/false);
  };
  if (assemble()->txs.size() != kWideBlockTxs + 1u) {
    state.SkipWithError("selection skipped a transfer");
    return;
  }
  for (auto _ : state) benchmark::DoNotOptimize(assemble());
  SetTimePerTx(state);
}
// Wall time: selection checks the 512 candidates in 64-transaction chunks
// on the calling thread's WorkerPool, and the main thread's CPU time would
// leave the pool threads' share out.
BENCHMARK(BM_SelectBlock)
    ->Arg(25000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

struct EvidenceFixture {
  Blockchain chain;
  crypto::Hash256 tx_id;

  EvidenceFixture(uint32_t depth)
      : chain(ParamsWithDifficulty(4), {TxOutput{100000, kAlice.public_key()}}) {
    Wallet alice(kAlice, chain.id());
    Rng rng(14);
    auto tx = alice.BuildTransfer(chain.StateAtHead(), kBob.public_key(), 10,
                                  1, 1);
    tx_id = tx->Id();
    TimePoint now = 0;
    auto mine = [&](const std::vector<Transaction>& txs) {
      now += 100;
      auto block = chain.AssembleBlock(chain.head()->hash, txs,
                                       kAlice.public_key(), now, &rng);
      (void)chain.SubmitBlock(*block, now);
    };
    mine({*tx});
    for (uint32_t i = 0; i < depth; ++i) mine({});
  }
};

void BM_BuildTxEvidence(benchmark::State& state) {
  EvidenceFixture fixture(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(contracts::BuildTxEvidence(
        fixture.chain, fixture.chain.genesis()->hash, fixture.tx_id));
  }
}
BENCHMARK(BM_BuildTxEvidence)->Arg(2)->Arg(8)->Arg(32);

void BM_VerifyTxEvidence(benchmark::State& state) {
  EvidenceFixture fixture(static_cast<uint32_t>(state.range(0)));
  auto evidence = contracts::BuildTxEvidence(
      fixture.chain, fixture.chain.genesis()->hash, fixture.tx_id);
  const BlockHeader checkpoint = fixture.chain.genesis()->block.header;
  for (auto _ : state) {
    benchmark::DoNotOptimize(contracts::VerifyHeaderChainEvidence(
        checkpoint, fixture.chain.params().difficulty_bits, *evidence,
        static_cast<uint32_t>(state.range(0))));
  }
}
BENCHMARK(BM_VerifyTxEvidence)->Arg(2)->Arg(8)->Arg(32);

}  // namespace
}  // namespace ac3::chain

BENCHMARK_MAIN();
