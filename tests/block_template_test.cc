// Block assembly and serial block execution.
//
// Blockchain::AssembleBlock keeps a one-entry block template shared by the
// miners racing for the same extension. Whatever the template does, an
// assembled block must be byte-identical to a fresh selection on an
// identical second chain (whose template is empty), and the chain must
// accept it. The template cases below cover the calls that should reuse
// the cached selection and the ones that must not; the serial-execution
// cases pin ApplyBlockBody's mid-block failure statuses, receipts and
// catch-up replay, and that staging a block's writes in one delta equals
// committing them one transaction at a time; the validation-order cases
// pin which status an over-capacity block or a short receipt list gets,
// and the repeated-transaction cases that no transaction repeats on its
// branch: a coinbase by its index lookup, any other kind by its spent
// inputs, in validation and in selection alike.

#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/chain/ledger.h"
#include "src/contracts/atomic_swap_contract.h"
#include "src/contracts/htlc_contract.h"
#include "tests/test_util.h"

namespace ac3 {
namespace {

using chain::Amount;
using chain::ApplyBlockBody;
using chain::Block;
using chain::BlockEntry;
using chain::BlockEnv;
using chain::Blockchain;
using chain::ChainParams;
using chain::LedgerState;
using chain::MutableTransaction;
using chain::OutPoint;
using chain::Transaction;
using chain::TxOutput;
using chain::TxType;
using chain::Wallet;

using Candidates = std::span<const Transaction* const>;

std::vector<const Transaction*> Pointers(const std::vector<Transaction>& txs) {
  std::vector<const Transaction*> pointers;
  pointers.reserve(txs.size());
  for (const Transaction& tx : txs) pointers.push_back(&tx);
  return pointers;
}

void ExpectBlocksIdentical(const Block& a, const Block& b) {
  EXPECT_EQ(Encode(a.header), Encode(b.header));
  ASSERT_EQ(a.txs.size(), b.txs.size());
  for (size_t i = 0; i < a.txs.size(); ++i) {
    EXPECT_EQ(Encode(a.txs[i]), Encode(b.txs[i])) << "tx " << i;
  }
  ASSERT_EQ(a.receipts.size(), b.receipts.size());
  for (size_t i = 0; i < a.receipts.size(); ++i) {
    EXPECT_EQ(Encode(a.receipts[i]), Encode(b.receipts[i]))
        << "receipt " << i;
  }
}

void ExpectStatesEqual(const LedgerState& a, const LedgerState& b) {
  std::vector<std::pair<OutPoint, TxOutput>> utxos_a, utxos_b;
  for (const auto& [op, out] : a.utxos) utxos_a.emplace_back(op, out);
  for (const auto& [op, out] : b.utxos) utxos_b.emplace_back(op, out);
  EXPECT_EQ(utxos_a, utxos_b);
  EXPECT_EQ(a.LiquidValue(), b.LiquidValue());
  EXPECT_EQ(a.LockedValue(), b.LockedValue());
}

/// A main chain plus the means to build identical twins of it. Test
/// transactions come from 16 funded keys.
class ChainFixture : public ::testing::Test {
 protected:
  ChainFixture() { Reset(chain::TestChainParams().max_block_txs); }

  /// Rebuilds the main chain at genesis with `capacity` body slots.
  void Reset(size_t capacity) {
    params_ = chain::TestChainParams();
    params_.max_block_txs = capacity;
    keys_.clear();
    std::vector<crypto::PublicKey> pks;
    for (int i = 0; i < 16; ++i) {
      keys_.push_back(crypto::KeyPair::FromSeed(1000 + i));
      pks.push_back(keys_.back().public_key());
    }
    allocations_ = testutil::Fund(pks, 1000);
    tc_ = std::make_unique<testutil::TestChain>(params_, allocations_);
  }

  Blockchain& chain() { return tc_->chain(); }
  const ChainParams& params() { return chain().params(); }
  Wallet WalletFor(size_t i) { return Wallet(keys_[i], chain().id()); }
  const crypto::PublicKey& Miner(size_t m) {
    return keys_[m % keys_.size()].public_key();
  }

  /// A transfer of `amount` from key `from` to key `from + 1`, built
  /// against the head state.
  Transaction Transfer(size_t from, Amount amount, uint64_t nonce) {
    Wallet wallet = WalletFor(from);
    const crypto::PublicKey& to = keys_[(from + 1) % keys_.size()].public_key();
    auto tx =
        wallet.BuildTransfer(chain().StateAtHead(), to, amount, 1, nonce);
    EXPECT_TRUE(tx.ok()) << tx.status().ToString();
    return *tx;
  }

  /// A fresh chain holding every block of the main chain: its block
  /// template is empty, so its assembly is a fresh selection.
  std::unique_ptr<Blockchain> Twin() {
    auto twin = std::make_unique<Blockchain>(params_, allocations_);
    for (const chain::BlockEntry* entry : chain().arrival_order()) {
      if (entry->height() == 0) continue;
      const Status status = twin->SubmitBlock(entry->block, /*arrival_time=*/0);
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    return twin;
  }

  /// Unmined assembly whose coinbase nonce draw is a function of `now`, so
  /// two calls with the same inputs return byte-identical blocks (and
  /// blocks at different times never repeat a coinbase id).
  static Block Assemble(const Blockchain& bc, const crypto::Hash256& parent,
                        Candidates candidates, const crypto::PublicKey& miner,
                        TimePoint now) {
    Rng rng(static_cast<uint64_t>(now));
    auto block =
        bc.AssembleBlock(parent, candidates, miner, now, &rng, /*mine=*/false);
    EXPECT_TRUE(block.ok()) << block.status().ToString();
    return block.ok() ? *block : Block{};
  }

  /// Assembles on the main chain and on a twin and asserts the blocks are
  /// byte-identical; returns the main chain's block.
  Block ExpectMatchesFresh(const crypto::Hash256& parent,
                           Candidates candidates,
                           const crypto::PublicKey& miner, TimePoint now) {
    Block block = Assemble(chain(), parent, candidates, miner, now);
    const std::unique_ptr<Blockchain> twin = Twin();
    ExpectBlocksIdentical(block, Assemble(*twin, parent, candidates, miner,
                                          now));
    return block;
  }

  /// Every one of `miners` assembles on the head (the first call primes
  /// the template, the rest may reuse it); each block must match a fresh
  /// assembly. The last miner's block is mined and submitted.
  Block RaceAndSubmit(Candidates candidates, size_t miners, TimePoint now) {
    Block block;
    for (size_t m = 0; m < miners; ++m) {
      SCOPED_TRACE("miner " + std::to_string(m));
      block = ExpectMatchesFresh(chain().head()->hash, candidates, Miner(m),
                                 now);
    }
    Rng rng(static_cast<uint64_t>(now));
    chain::MineHeader(&block.header, &rng);
    const Status submitted = chain().SubmitBlock(block, now);
    EXPECT_TRUE(submitted.ok()) << submitted.ToString();
    return block;
  }

  /// A coinbase-headed block built outside AssembleBlock, for invalid
  /// shapes the assembler would never produce. `fees` funds the coinbase.
  Block RawBlock(std::vector<Transaction> body, Amount fees) {
    Block block;
    block.header.chain_id = params().id;
    block.header.height = chain().head()->height() + 1;
    block.header.prev_hash = chain().head()->hash;
    block.header.time = 50;
    block.header.difficulty_bits = params().difficulty_bits;
    MutableTransaction coinbase;
    coinbase.type = TxType::kCoinbase;
    coinbase.chain_id = params().id;
    coinbase.outputs.push_back(
        TxOutput{params().block_reward + fees, keys_[0].public_key()});
    coinbase.nonce = 4242;
    block.txs.emplace_back(std::move(coinbase));
    block.txs.insert(block.txs.end(), body.begin(), body.end());
    return block;
  }

  /// Completes a RawBlock that should validate: receipts from executing
  /// it on its parent, both roots and a proof of work.
  void Seal(Block* block) {
    LedgerState scratch =
        chain().StateAt(*chain().Get(block->header.prev_hash));
    auto receipts = ApplyBlockBody(&scratch, *block, params());
    ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
    block->receipts = std::move(*receipts);
    block->header.tx_root = block->ComputeTxRoot();
    block->header.receipt_root = block->ComputeReceiptRoot();
    Rng rng(block->header.height);
    chain::MineHeader(&block->header, &rng);
  }

  /// Completes a RawBlock that must fail execution: a placeholder receipt
  /// per transaction, both roots over them and a proof of work, so only
  /// staging can reject it.
  void SealUnexecuted(Block* block) {
    block->receipts.assign(block->txs.size(), chain::Receipt{});
    block->header.tx_root = block->ComputeTxRoot();
    block->header.receipt_root = block->ComputeReceiptRoot();
    Rng rng(block->header.height);
    chain::MineHeader(&block->header, &rng);
  }

  /// Submits `block`, expecting `message` as an invalid argument, and
  /// checks the rejection left the head and its value totals untouched.
  void ExpectRejected(const Block& block, const std::string& message) {
    const crypto::Hash256 head = chain().head()->hash;
    const Status status = chain().SubmitBlock(block, 500);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), message);
    EXPECT_EQ(chain().head()->hash, head);
    const LedgerState state = chain().StateAtHead();
    EXPECT_EQ(state.LiquidValue(), testutil::LiquidValueScan(state));
  }

  /// Key `signer` moves the whole of `outpoint`, worth `value`, to key
  /// `to`, less a fee of 1.
  Transaction SpendWhole(const OutPoint& outpoint, Amount value,
                         size_t signer, size_t to, uint64_t nonce) {
    MutableTransaction m;
    m.type = TxType::kTransfer;
    m.chain_id = chain().id();
    m.inputs.push_back(outpoint);
    m.outputs.push_back(TxOutput{value - 1, keys_[to].public_key()});
    m.fee = 1;
    m.nonce = nonce;
    m.SignWith(keys_[signer]);
    return Transaction(std::move(m));
  }

  /// Mines one block in which every key splits its genesis output into
  /// `per_key` outputs of 60 to itself, then returns one SpendWhole of
  /// each split output, keys round-robin: independent transfers enough for
  /// a block several check chunks wide. `splits`, when given, receives the
  /// splitting transactions, which are on the branch from then on.
  std::vector<Transaction> WideSpends(size_t per_key,
                                      std::vector<Transaction>* splits) {
    const crypto::Hash256& genesis = chain().genesis_tx().Id();
    std::vector<Transaction> split;
    for (size_t k = 0; k < keys_.size(); ++k) {
      MutableTransaction m;
      m.type = TxType::kTransfer;
      m.chain_id = chain().id();
      m.inputs.push_back(OutPoint{genesis, static_cast<uint32_t>(k)});
      m.outputs.assign(per_key, TxOutput{60, keys_[k].public_key()});
      m.fee = 1000 - 60 * per_key;
      m.nonce = 5000 + k;
      m.SignWith(keys_[k]);
      split.emplace_back(std::move(m));
    }
    RaceAndSubmit(Pointers(split), /*miners=*/1, /*now=*/100);
    std::vector<Transaction> spends;
    for (size_t j = 0; j < per_key * keys_.size(); ++j) {
      const size_t k = j % keys_.size();
      spends.push_back(SpendWhole(
          OutPoint{split[k].Id(), static_cast<uint32_t>(j / keys_.size())},
          60, k, (k + 1) % keys_.size(), 6000 + j));
    }
    if (splits != nullptr) *splits = std::move(split);
    return spends;
  }

  ChainParams params_;
  std::vector<chain::TxOutput> allocations_;
  std::vector<crypto::KeyPair> keys_;
  std::unique_ptr<testutil::TestChain> tc_;
};

// ------------------------------------------------------------ block template

using BlockTemplateTest = ChainFixture;

TEST_F(BlockTemplateTest, RacingMinersMatchFreshAssemblyAndValidate) {
  std::vector<Transaction> txs;
  for (size_t i = 0; i < 12; ++i) {
    txs.push_back(Transfer(i, 50 + static_cast<Amount>(i), i));
  }
  const auto pointers = Pointers(txs);
  const Block block = RaceAndSubmit(pointers, /*miners=*/4, /*now=*/100);
  EXPECT_EQ(block.txs.size(), txs.size() + 1);
  EXPECT_EQ(chain().head()->hash, block.header.Hash());
}

// Each racing miner folds its own coinbase up the template's two leaf-0
// paths. The roots must equal full folds over its own block at every body
// size, the empty body and odd Merkle levels included.
TEST_F(BlockTemplateTest, CoinbaseBranchRootsMatchFullFolds) {
  for (const size_t n : {0u, 1u, 2u, 3u, 4u, 7u, 8u}) {
    SCOPED_TRACE("body size " + std::to_string(n));
    std::vector<Transaction> txs;
    for (size_t i = 0; i < n; ++i) txs.push_back(Transfer(i, 10, 100 + n));
    const auto pointers = Pointers(txs);
    for (size_t m = 0; m < 3; ++m) {
      const Block block = Assemble(chain(), chain().head()->hash, pointers,
                                   Miner(m), /*now=*/100);
      ASSERT_EQ(block.txs.size(), n + 1);
      EXPECT_EQ(block.header.tx_root, block.ComputeTxRoot()) << "miner " << m;
      EXPECT_EQ(block.header.receipt_root, block.ComputeReceiptRoot())
          << "miner " << m;
    }
  }
}

TEST_F(BlockTemplateTest, RacingMinersMatchFreshWithContractCallsAndReverts) {
  // Block 1: two HTLCs (one to redeem properly, one to feed a wrong-secret
  // revert) plus independent transfers.
  const Bytes secret{7, 7, 7};
  const Bytes wrong{6, 6, 6};
  Wallet alice = WalletFor(1);
  Wallet dave = WalletFor(3);
  const LedgerState s0 = chain().StateAtHead();
  const Bytes payload = Encode(contracts::HtlcInit{
      keys_[2].public_key(), crypto::Hash256::Of(secret), /*timelock=*/10'000});
  auto deploy_a =
      alice.BuildDeploy(s0, contracts::kHtlcKind, payload, 300, 4, 1);
  auto deploy_b =
      dave.BuildDeploy(s0, contracts::kHtlcKind, payload, 200, 4, 2);
  ASSERT_TRUE(deploy_a.ok() && deploy_b.ok());
  std::vector<Transaction> block1{*deploy_a, *deploy_b};
  for (size_t i = 4; i < 10; ++i) block1.push_back(Transfer(i, 40, i));
  RaceAndSubmit(Pointers(block1), /*miners=*/4, /*now=*/100);

  // Block 2: a successful redeem, a wrong-secret revert, and a same-block
  // spend chain: a transfer whose output a second transfer consumes.
  const LedgerState s1 = chain().StateAtHead();
  Wallet bob = WalletFor(2);
  Wallet eve = WalletFor(15);
  auto redeem = bob.BuildCall(s1, deploy_a->Id(), contracts::kRedeemFunction,
                              secret, 2, 1);
  auto bad_redeem = eve.BuildCall(s1, deploy_b->Id(),
                                  contracts::kRedeemFunction, wrong, 2, 2);
  ASSERT_TRUE(redeem.ok() && bad_redeem.ok());
  const Transaction hop1 = Transfer(5, 100, 7);
  MutableTransaction hop2;  // keys_[6] spends hop1's output in the block.
  hop2.type = TxType::kTransfer;
  hop2.chain_id = chain().id();
  hop2.inputs.push_back(OutPoint{hop1.Id(), 0});
  hop2.outputs.push_back(TxOutput{99, keys_[7].public_key()});
  hop2.fee = 1;
  hop2.nonce = 8;
  hop2.SignWith(keys_[6]);
  std::vector<Transaction> block2{*redeem, *bad_redeem, hop1,
                                  Transaction(hop2)};
  for (size_t i = 10; i < 14; ++i) block2.push_back(Transfer(i, 30, i));
  const Block mined = RaceAndSubmit(Pointers(block2), /*miners=*/4,
                                    /*now=*/200);

  ASSERT_EQ(mined.txs.size(), block2.size() + 1);
  EXPECT_TRUE(mined.receipts[1].success);
  EXPECT_FALSE(mined.receipts[2].success);  // The wrong-secret call.
}

TEST_F(BlockTemplateTest, HitsWhenCandidatesDifferOnlyAfterCapacityCut) {
  Reset(/*capacity=*/5);
  std::vector<Transaction> txs;
  for (size_t i = 0; i < 10; ++i) txs.push_back(Transfer(i, 60, i));
  MutableTransaction edit = txs[9].ToMutable();
  edit.fee += 1;  // Invalidates the signature: examined, then skipped.
  const Transaction forged(std::move(edit));
  // The selection examines t0, forged, t1..t4 and stops at capacity.
  const std::vector<const Transaction*> first{
      &txs[0], &forged, &txs[1], &txs[2], &txs[3], &txs[4], &txs[5], &txs[6]};
  const Block primed = ExpectMatchesFresh(chain().head()->hash, first,
                                          Miner(0), 100);
  ASSERT_EQ(primed.txs.size(), 6u);

  // Same examined prefix, a different tail, then the bare prefix.
  const std::vector<const Transaction*> other_tail{
      &txs[0], &forged, &txs[1], &txs[2], &txs[3], &txs[4], &txs[8], &txs[7]};
  const std::vector<const Transaction*> prefix_only(first.begin(),
                                                    first.begin() + 6);
  for (const auto* list : {&other_tail, &prefix_only}) {
    const Block block =
        ExpectMatchesFresh(chain().head()->hash, *list, Miner(1), 100);
    ASSERT_EQ(block.txs.size(), primed.txs.size());
    for (size_t i = 1; i < block.txs.size(); ++i) {
      EXPECT_EQ(block.txs[i].Id(), primed.txs[i].Id());
    }
  }
}

TEST_F(BlockTemplateTest, MissesOnChangedIdBeforeCapacityCut) {
  Reset(/*capacity=*/5);
  std::vector<Transaction> txs;
  for (size_t i = 0; i < 8; ++i) txs.push_back(Transfer(i, 60, i));
  std::vector<const Transaction*> list = Pointers(txs);
  ExpectMatchesFresh(chain().head()->hash, list, Miner(0), 100);
  list[2] = &txs[7];  // Inside the examined prefix.
  const Block block =
      ExpectMatchesFresh(chain().head()->hash, list, Miner(1), 100);
  ASSERT_EQ(block.txs.size(), 6u);
  EXPECT_EQ(block.txs[3].Id(), txs[7].Id());
}

TEST_F(BlockTemplateTest, MissesOnDifferentTxAtReusedAddress) {
  std::vector<Transaction> txs;
  for (size_t i = 0; i < 4; ++i) txs.push_back(Transfer(i, 60, i));
  const std::vector<const Transaction*> pointers = Pointers(txs);
  ExpectMatchesFresh(chain().head()->hash, pointers, Miner(0), 100);
  // Overwrite one candidate in place: same address, different transaction
  // (as when a pool compacts its entries after a prune).
  const crypto::Hash256 replaced = txs[2].Id();
  txs[2] = Transfer(9, 70, 99);
  const Block block =
      ExpectMatchesFresh(chain().head()->hash, pointers, Miner(1), 100);
  ASSERT_EQ(block.txs.size(), 5u);
  EXPECT_EQ(block.txs[3].Id(), txs[2].Id());
  EXPECT_NE(block.txs[3].Id(), replaced);
}

TEST_F(BlockTemplateTest, HitsOnSameIdsAtMovedAddresses) {
  std::vector<Transaction> txs;
  for (size_t i = 0; i < 6; ++i) txs.push_back(Transfer(i, 60, i));
  const Block primed =
      ExpectMatchesFresh(chain().head()->hash, Pointers(txs), Miner(0), 100);
  // The same transactions moved to new storage (as when a pool compacts
  // its entries), and the old slots reused for others: the selection
  // depends on the ids, not on where they live.
  const std::vector<Transaction> moved = txs;
  for (size_t i = 0; i < txs.size(); ++i) {
    txs[i] = Transfer(i + 8, 70, 50 + i);
  }
  const Block block =
      ExpectMatchesFresh(chain().head()->hash, Pointers(moved), Miner(1), 100);
  ASSERT_EQ(block.txs.size(), primed.txs.size());
  for (size_t i = 1; i < block.txs.size(); ++i) {
    EXPECT_EQ(block.txs[i].Id(), moved[i - 1].Id());
  }
}

TEST_F(BlockTemplateTest, MissesOnLongerListWhenSelectionRanOut) {
  std::vector<Transaction> txs;
  for (size_t i = 0; i < 4; ++i) txs.push_back(Transfer(i, 60, i));
  const std::vector<const Transaction*> all = Pointers(txs);
  const std::vector<const Transaction*> first_three(all.begin(),
                                                    all.begin() + 3);
  const Block short_block =
      ExpectMatchesFresh(chain().head()->hash, first_three, Miner(0), 100);
  EXPECT_EQ(short_block.txs.size(), 4u);
  const Block long_block =
      ExpectMatchesFresh(chain().head()->hash, all, Miner(1), 100);
  EXPECT_EQ(long_block.txs.size(), 5u);
}

TEST_F(BlockTemplateTest, MissesOnDifferentNowForTimeReadingCall) {
  // An HTLC refund reads the block time: before the timelock it reverts,
  // after it succeeds. The same candidate at two times must not share a
  // selection.
  Wallet alice = WalletFor(1);
  const Bytes payload = Encode(contracts::HtlcInit{
      keys_[2].public_key(), crypto::Hash256::Of(Bytes{1}), /*timelock=*/1'000});
  auto deploy = alice.BuildDeploy(chain().StateAtHead(), contracts::kHtlcKind,
                                  payload, 300, 4, 1);
  ASSERT_TRUE(deploy.ok());
  RaceAndSubmit(std::vector<const Transaction*>{&*deploy}, /*miners=*/1, 100);

  auto refund = alice.BuildCall(chain().StateAtHead(), deploy->Id(),
                                contracts::kRefundFunction, {}, 2, 2);
  ASSERT_TRUE(refund.ok());
  const std::vector<const Transaction*> candidates{&*refund};
  const Block early =
      ExpectMatchesFresh(chain().head()->hash, candidates, Miner(0), 500);
  const Block late =
      ExpectMatchesFresh(chain().head()->hash, candidates, Miner(0), 1'500);
  ASSERT_EQ(early.receipts.size(), 2u);
  ASSERT_EQ(late.receipts.size(), 2u);
  EXPECT_FALSE(early.receipts[1].success);
  EXPECT_TRUE(late.receipts[1].success);
}

TEST_F(BlockTemplateTest, MissesOnDifferentParent) {
  const Transaction included = Transfer(0, 60, 1);
  RaceAndSubmit(std::vector<const Transaction*>{&included}, /*miners=*/1, 100);
  const Transaction pending = Transfer(3, 60, 2);
  const std::vector<const Transaction*> candidates{&included, &pending};
  // On the head the first candidate is already on the branch; on genesis
  // it is not.
  const Block on_head =
      ExpectMatchesFresh(chain().head()->hash, candidates, Miner(0), 200);
  const Block on_genesis =
      ExpectMatchesFresh(chain().genesis()->hash, candidates, Miner(0), 200);
  EXPECT_EQ(on_head.txs.size(), 2u);
  EXPECT_EQ(on_genesis.txs.size(), 3u);
}

TEST_F(BlockTemplateTest, CapacityCapsTheBlock) {
  Reset(/*capacity=*/7);
  std::vector<Transaction> txs;
  for (size_t i = 0; i < 16; ++i) txs.push_back(Transfer(i, 100, i));
  const Block block = RaceAndSubmit(Pointers(txs), /*miners=*/2, 100);
  EXPECT_EQ(block.txs.size(), params().max_block_txs + 1);  // +1 coinbase.
}

// Selection checks signatures in 64-transaction chunks on the pool, a
// window of at most the remaining capacity at a time. 200 candidates in a
// 160-slot block: the first window's three chunks each hold one reject (a
// forged signature, a missing input, a transaction already on the branch,
// whose input is spent), and the block fills in the third window, which a
// second window's in-list duplicate, whose input the first copy spent,
// forces.
TEST_F(BlockTemplateTest, WideSelectionRejectsInEveryChunkAndWindow) {
  Reset(/*capacity=*/160);
  std::vector<Transaction> splits;
  const std::vector<Transaction> spends = WideSpends(/*per_key=*/13, &splits);
  ASSERT_EQ(spends.size(), 208u);
  MutableTransaction edit = spends[207].ToMutable();
  edit.fee += 1;  // Invalidates the signature.
  const Transaction forged(std::move(edit));
  const Transaction missing = SpendWhole(
      OutPoint{crypto::Hash256::Of(Bytes{0xBA}), 0}, 60, 3, 4, 7000);
  std::vector<const Transaction*> candidates;
  std::vector<crypto::Hash256> expected;
  for (size_t j = 0; candidates.size() < 200; ++j) {
    const size_t at = candidates.size();
    const Transaction* reject = at == 10    ? &forged
                                : at == 70  ? &missing
                                : at == 130 ? &splits[0]  // On the branch.
                                : at == 161 ? candidates[5]
                                            : nullptr;
    if (reject != nullptr) candidates.push_back(reject);
    candidates.push_back(&spends[j]);
    if (expected.size() < 160) expected.push_back(spends[j].Id());
  }
  ASSERT_EQ(candidates[5], &spends[5]);  // The duplicate is a valid one.

  const Block block = RaceAndSubmit(candidates, /*miners=*/2, /*now=*/200);
  ASSERT_EQ(block.txs.size(), expected.size() + 1);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(block.txs[i + 1].Id(), expected[i]) << "slot " << i;
  }
  EXPECT_EQ(chain().head()->hash, block.header.Hash());
}

// ------------------------------------------------------------ serial execution

using SerialExecTest = ChainFixture;

TEST_F(SerialExecTest, MidBlockFailureStopsAtTheBadTransaction) {
  // Body: two valid transfers, then a signed transfer spending a
  // nonexistent outpoint, then another valid transfer. The loop aborts at
  // index 3 having applied indices 1-2.
  std::vector<Transaction> body{Transfer(1, 25, 1), Transfer(2, 25, 2)};
  MutableTransaction bogus;
  bogus.type = TxType::kTransfer;
  bogus.chain_id = chain().id();
  bogus.inputs.push_back(OutPoint{crypto::Hash256::Of(Bytes{0xBA}), 0});
  bogus.outputs.push_back(TxOutput{5, keys_[9].public_key()});
  bogus.nonce = 77;
  bogus.SignWith(keys_[8]);
  body.emplace_back(std::move(bogus));
  body.push_back(Transfer(4, 25, 4));
  const Block block = RawBlock(body, /*fees=*/4);

  LedgerState state = chain().StateAtHead();
  const auto receipts = ApplyBlockBody(&state, block, params());
  ASSERT_FALSE(receipts.ok());
  EXPECT_EQ(receipts.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(receipts.status().message(),
            "input not in UTXO set (double spend?)");
  EXPECT_NE(state.utxos.Find(OutPoint{body[0].Id(), 0}), nullptr);
  EXPECT_NE(state.utxos.Find(OutPoint{body[1].Id(), 0}), nullptr);
  EXPECT_EQ(state.utxos.Find(OutPoint{body[3].Id(), 0}), nullptr);
  EXPECT_NE(state.utxos.Find(body[3].inputs()[0]), nullptr);  // Unspent.
}

TEST_F(SerialExecTest, DuplicateCoinbaseRejected) {
  std::vector<Transaction> body{Transfer(1, 25, 1), Transfer(2, 25, 2)};
  MutableTransaction rogue;  // A second coinbase buried mid-body.
  rogue.type = TxType::kCoinbase;
  rogue.chain_id = chain().id();
  rogue.outputs.push_back(TxOutput{1, keys_[9].public_key()});
  rogue.nonce = 5;
  body.emplace_back(std::move(rogue));
  body.push_back(Transfer(4, 25, 4));
  const Block block = RawBlock(std::move(body), /*fees=*/2);

  LedgerState state = chain().StateAtHead();
  const auto receipts = ApplyBlockBody(&state, block, params());
  ASSERT_FALSE(receipts.ok());
  EXPECT_EQ(receipts.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(receipts.status().message(), "duplicate coinbase");
}

TEST_F(SerialExecTest, BadSignatureRejected) {
  std::vector<Transaction> body{Transfer(1, 25, 1), Transfer(2, 25, 2),
                                Transfer(3, 25, 3), Transfer(4, 25, 4)};
  MutableTransaction corrupted = body[2].ToMutable();
  corrupted.nonce ^= 1;  // Corrupted after signing.
  body[2] = Transaction(std::move(corrupted));
  const Block block = RawBlock(std::move(body), /*fees=*/4);

  LedgerState state = chain().StateAtHead();
  const auto receipts = ApplyBlockBody(&state, block, params());
  ASSERT_FALSE(receipts.ok());
  EXPECT_EQ(receipts.status().code(), StatusCode::kVerificationFailed);
  EXPECT_EQ(receipts.status().message(), "bad transaction signature");
}

TEST_F(SerialExecTest, SpendOfLaterOutputFollowsBlockOrder) {
  // `spend` consumes `source`'s output. Execution follows block order, so
  // the spend must come second: placed first, it invalidates a block and
  // is skipped by assembly.
  const Transaction source = Transfer(5, 100, 7);
  MutableTransaction m;
  m.type = TxType::kTransfer;
  m.chain_id = chain().id();
  m.inputs.push_back(OutPoint{source.Id(), 0});
  m.outputs.push_back(TxOutput{99, keys_[7].public_key()});
  m.fee = 1;
  m.nonce = 8;
  m.SignWith(keys_[6]);
  const Transaction spend(std::move(m));

  const Block raw = RawBlock({spend, source}, /*fees=*/2);
  LedgerState state = chain().StateAtHead();
  const auto receipts = ApplyBlockBody(&state, raw, params());
  ASSERT_FALSE(receipts.ok());
  EXPECT_EQ(receipts.status().message(),
            "input not in UTXO set (double spend?)");

  const Block skipped = ExpectMatchesFresh(
      chain().head()->hash, std::vector<const Transaction*>{&spend, &source},
      Miner(0), 100);
  ASSERT_EQ(skipped.txs.size(), 2u);
  EXPECT_EQ(skipped.txs[1].Id(), source.Id());

  const Block both = RaceAndSubmit(
      std::vector<const Transaction*>{&source, &spend}, /*miners=*/2, 200);
  ASSERT_EQ(both.txs.size(), 3u);
  EXPECT_EQ(both.txs[2].Id(), spend.Id());
  EXPECT_NE(chain().StateAtHead().utxos.Find(OutPoint{spend.Id(), 0}),
            nullptr);
}

TEST_F(SerialExecTest, CallFollowsSameBlockDeploy) {
  // A call to a contract deployed earlier in the same block sees it; a
  // call placed before the deploy finds no contract.
  const Bytes secret{3, 1, 4};
  Wallet alice = WalletFor(1);
  Wallet bob = WalletFor(2);
  const LedgerState s0 = chain().StateAtHead();
  const Bytes payload = Encode(contracts::HtlcInit{
      keys_[2].public_key(), crypto::Hash256::Of(secret), /*timelock=*/10'000});
  auto deploy = alice.BuildDeploy(s0, contracts::kHtlcKind, payload, 300, 4, 1);
  ASSERT_TRUE(deploy.ok());
  auto redeem = bob.BuildCall(s0, deploy->Id(), contracts::kRedeemFunction,
                              secret, 2, 2);
  ASSERT_TRUE(redeem.ok());

  const Block raw = RawBlock({*redeem, *deploy}, /*fees=*/6);
  LedgerState state = chain().StateAtHead();
  const auto receipts = ApplyBlockBody(&state, raw, params());
  ASSERT_FALSE(receipts.ok());
  EXPECT_EQ(receipts.status().code(), StatusCode::kNotFound);

  const Block skipped = ExpectMatchesFresh(
      chain().head()->hash,
      std::vector<const Transaction*>{&*redeem, &*deploy}, Miner(0), 100);
  ASSERT_EQ(skipped.txs.size(), 2u);
  EXPECT_EQ(skipped.txs[1].Id(), deploy->Id());

  const Block both = RaceAndSubmit(
      std::vector<const Transaction*>{&*deploy, &*redeem}, /*miners=*/2, 200);
  ASSERT_EQ(both.receipts.size(), 3u);
  EXPECT_TRUE(both.receipts[2].success);
  EXPECT_EQ(both.receipts[2].contract_id, deploy->Id());
}

TEST_F(SerialExecTest, AssembledReceiptsMatchFullReExecution) {
  // AssembleBlock reuses the selection-pass receipts instead of re-running
  // the body; this pins them against the validators' execution.
  std::vector<Transaction> txs;
  for (size_t i = 0; i < 8; ++i) txs.push_back(Transfer(i, 60, i));
  const Block block =
      Assemble(chain(), chain().head()->hash, Pointers(txs), Miner(0), 100);
  LedgerState replay = chain().StateAtHead();
  const auto receipts = ApplyBlockBody(&replay, block, params());
  ASSERT_TRUE(receipts.ok());
  ASSERT_EQ(receipts->size(), block.receipts.size());
  for (size_t i = 0; i < receipts->size(); ++i) {
    EXPECT_EQ(Encode((*receipts)[i]), Encode(block.receipts[i]));
  }
  EXPECT_EQ(block.header.receipt_root, block.ComputeReceiptRoot());
  EXPECT_EQ(block.header.tx_root, block.ComputeTxRoot());
}

TEST_F(SerialExecTest, RandomizedChurnKeepsAggregatesExact) {
  Rng rng(0xfeed);
  for (int round = 0; round < 6; ++round) {
    std::vector<Transaction> txs;
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (rng.NextU64() % 4 == 0) continue;  // Skip some senders.
      Wallet w = WalletFor(i);
      const size_t to = rng.NextU64() % keys_.size();
      const Amount amount = 10 + static_cast<Amount>(rng.NextU64() % 50);
      auto tx = w.BuildTransfer(chain().StateAtHead(), keys_[to].public_key(),
                                amount, 1, rng.NextU64());
      if (tx.ok()) txs.push_back(std::move(*tx));
    }
    RaceAndSubmit(Pointers(txs), /*miners=*/2, 100 * (round + 1));
  }
  const LedgerState head = chain().StateAtHead();
  EXPECT_EQ(head.LiquidValue(), testutil::LiquidValueScan(head));
}

TEST_F(SerialExecTest, StagedBlocksMatchOneTransactionAtATime) {
  // Each block holds three spend chains two deep: a transfer from a head
  // output, a spend of its payment, and a spend of that. The payments in
  // between are created and spent inside the block's delta and never
  // reach a tree. The first block also deploys an HTLC, redeems it, and
  // spends the redeem's payout. Each committed head must equal a replay
  // that commits after every transaction, and the parent must not move:
  // from round 1 on, the block takes its parent's state and commits into
  // it in place, so the parent's state read afterwards is a rebuilt one.
  // No copy of the parent's state is held across a submission, which
  // would make the commit path-copy instead.
  const Bytes secret{2, 7, 1, 8};
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const BlockEntry& parent = *chain().head();
    const testutil::ValueImage parent_before =
        testutil::ValuesOf(chain().StateAt(parent));
    const uint64_t nonce = 1000 * (round + 1);
    std::vector<Transaction> txs;
    std::vector<OutPoint> passed_through;
    for (size_t c = 0; c < 3; ++c) {
      const size_t from = (3 * round + c) % 10;  // Keys 10 and 11: HTLC.
      const Transaction head = Transfer(from, 100, nonce + 10 * c);
      const Transaction hop =
          SpendWhole(OutPoint{head.Id(), 0}, 100, (from + 1) % 16,
                     (from + 2) % 16, nonce + 10 * c + 1);
      const Transaction last =
          SpendWhole(OutPoint{hop.Id(), 0}, 99, (from + 2) % 16,
                     (from + 3) % 16, nonce + 10 * c + 2);
      passed_through.push_back(OutPoint{head.Id(), 0});
      passed_through.push_back(OutPoint{hop.Id(), 0});
      txs.insert(txs.end(), {head, hop, last});
    }
    if (round == 0) {
      const Bytes payload = Encode(contracts::HtlcInit{
          keys_[11].public_key(), crypto::Hash256::Of(secret), 10'000});
      auto deploy = WalletFor(10).BuildDeploy(
          chain().StateAt(parent), contracts::kHtlcKind, payload, 300, 4,
          nonce + 100);
      ASSERT_TRUE(deploy.ok());
      auto redeem =
          WalletFor(11).BuildCall(chain().StateAt(parent), deploy->Id(),
                                  contracts::kRedeemFunction, secret, 2,
                                  nonce + 101);
      ASSERT_TRUE(redeem.ok());
      const OutPoint payout{redeem->Id(),
                            static_cast<uint32_t>(redeem->outputs().size())};
      passed_through.push_back(payout);
      txs.insert(txs.end(), {*deploy, *redeem,
                             SpendWhole(payout, 300, 11, 12, nonce + 102)});
    }

    const Block block =
        RaceAndSubmit(Pointers(txs), /*miners=*/1, 100 * (round + 1));
    ASSERT_EQ(block.txs.size(), txs.size() + 1);  // Nothing was skipped.
    ASSERT_EQ(chain().head()->hash, block.header.Hash());
    const LedgerState head = chain().StateAtHead();
    for (const OutPoint& op : passed_through) {
      EXPECT_EQ(head.utxos.Find(op), nullptr);
    }

    LedgerState replay = chain().StateAt(parent);
    const BlockEnv env{chain().id(), block.header.height, block.header.time};
    for (size_t i = 1; i < block.txs.size(); ++i) {
      const auto receipt =
          testutil::ApplyAndCommit(&replay, block.txs[i], env);
      ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
      EXPECT_EQ(Encode(*receipt), Encode(block.receipts[i]));
    }
    // The replay lacks only the coinbase's outputs.
    std::map<OutPoint, TxOutput> expected;
    for (const auto& [op, out] : replay.utxos) expected.emplace(op, out);
    const Transaction& coinbase = block.txs[0];
    Amount reward = 0;
    for (uint32_t i = 0; i < coinbase.outputs().size(); ++i) {
      expected.emplace(OutPoint{coinbase.Id(), i}, coinbase.outputs()[i]);
      reward += coinbase.outputs()[i].value;
    }
    testutil::ValueImage replayed = testutil::ValuesOf(replay);
    replayed.utxos.assign(expected.begin(), expected.end());
    replayed.liquid_total += reward;
    EXPECT_TRUE(testutil::ValuesOf(head) == replayed);
    EXPECT_EQ(head.LiquidValue(), testutil::LiquidValueScan(head));
    EXPECT_EQ(head.LiquidValue(), replay.LiquidValue() + reward);
    const LedgerState parent_after = chain().StateAt(parent);
    EXPECT_TRUE(testutil::ValuesOf(parent_after) == parent_before);
    EXPECT_EQ(parent_after.LiquidValue(),
              testutil::LiquidValueScan(parent_after));
  }
  EXPECT_EQ(chain().StateAtHead().contracts.size(), 1u);
}

TEST_F(SerialExecTest, DeepCatchupReplaysHeadHash) {
  // Grow a 10-block linear chain of 8-transfer blocks, then replay it into
  // a fresh chain one SubmitBlock at a time (Twin): the replica must land
  // on the same head hash and post-state.
  for (int round = 0; round < 10; ++round) {
    std::vector<Transaction> txs;
    for (size_t i = 0; i < 8; ++i) {
      Wallet w = WalletFor(i + (round % 2 == 0 ? 0 : 8));
      auto tx = w.BuildTransfer(chain().StateAtHead(),
                                keys_[(i + 3) % keys_.size()].public_key(), 20,
                                1, static_cast<uint64_t>(round) * 100 + i);
      ASSERT_TRUE(tx.ok());
      txs.push_back(std::move(*tx));
    }
    RaceAndSubmit(Pointers(txs), /*miners=*/1, 100 * (round + 1));
  }
  ASSERT_EQ(chain().arrival_order().size(), 11u);  // Genesis + 10 blocks.

  const std::unique_ptr<Blockchain> replica = Twin();
  ASSERT_EQ(replica->head()->hash, chain().head()->hash);
  ExpectStatesEqual(replica->StateAtHead(), chain().StateAtHead());
}

// ------------------------------------------------------------ validation order

using ValidationOrderTest = ChainFixture;

TEST_F(ValidationOrderTest, OverCapacityRejectedBeforeRootsAreHashed) {
  Reset(/*capacity=*/2);
  // Three body transactions and roots that were never computed: the
  // capacity check must answer first.
  Block block = RawBlock({Transfer(1, 25, 1), Transfer(2, 25, 2),
                          Transfer(3, 25, 3)},
                         /*fees=*/3);
  Rng rng(5);
  chain::MineHeader(&block.header, &rng);
  const Status status = chain().SubmitBlock(block, 100);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "block over capacity");
}

TEST_F(ValidationOrderTest, ShortReceiptListRejectedBeforeRootsAreHashed) {
  const std::vector<Transaction> txs{Transfer(1, 25, 1), Transfer(2, 25, 2)};
  Block block =
      Assemble(chain(), chain().head()->hash, Pointers(txs), Miner(0), 100);
  block.receipts.pop_back();  // The header still commits to three.
  Rng rng(5);
  chain::MineHeader(&block.header, &rng);
  const Status status = chain().SubmitBlock(block, 100);
  EXPECT_EQ(status.code(), StatusCode::kVerificationFailed);
  EXPECT_EQ(status.message(), "receipt count mismatch");
}

// Validation runs the staged re-execution and both roots side by side. A
// 141-transaction block, wider than two selection chunks, with any two
// faults must get the status of the one a serial check meets first: tx
// root, receipt root, then the body in order. A transfer repeated from the
// branch fails staging on its spent input, as a missing input does, so of
// those two the one at the lower index wins (the missing input, at 60).
TEST_F(ValidationOrderTest, WideBlockWithTwoFaultsGetsTheSerialStatus) {
  Reset(/*capacity=*/160);
  std::vector<Transaction> splits;
  const std::vector<Transaction> spends = WideSpends(/*per_key=*/9, &splits);
  const std::vector<Transaction> body(spends.begin(), spends.begin() + 140);
  const Block clean =
      Assemble(chain(), chain().head()->hash, Pointers(body), Miner(0), 200);
  ASSERT_EQ(clean.txs.size(), 141u);
  const Transaction missing = SpendWhole(
      OutPoint{crypto::Hash256::Of(Bytes{0xBA}), 0}, 60, 3, 4, 7000);

  enum Fault { kTxRoot, kReceiptRoot, kRepeat, kMissingInput, kFaults };
  const char* const kMessages[kFaults] = {
      "tx merkle root mismatch", "receipt merkle root mismatch",
      "input not in UTXO set (double spend?)",
      "input not in UTXO set (double spend?)"};
  const crypto::Hash256 head = chain().head()->hash;
  for (int first = 0; first < kFaults; ++first) {
    for (int second = first + 1; second < kFaults; ++second) {
      SCOPED_TRACE(std::string(kMessages[first]) + " + " + kMessages[second]);
      const auto has = [&](int fault) {
        return first == fault || second == fault;
      };
      Block block = clean;
      if (has(kRepeat)) block.txs[100] = splits[0];
      if (has(kMissingInput)) block.txs[60] = missing;
      block.header.tx_root = block.ComputeTxRoot();
      if (has(kTxRoot)) block.header.tx_root = crypto::Hash256::Of(Bytes{1});
      if (has(kReceiptRoot)) {
        block.header.receipt_root = crypto::Hash256::Of(Bytes{2});
      }
      Rng rng(static_cast<uint64_t>(first * kFaults + second));
      chain::MineHeader(&block.header, &rng);
      const Status status = chain().SubmitBlock(block, 200);
      EXPECT_EQ(status.message(), kMessages[first]);
      EXPECT_EQ(status.code(), first <= kReceiptRoot
                                   ? StatusCode::kVerificationFailed
                                   : StatusCode::kInvalidArgument);
      EXPECT_EQ(chain().head()->hash, head);
    }
  }
  Block block = clean;
  Rng rng(99);
  chain::MineHeader(&block.header, &rng);
  const Status accepted = chain().SubmitBlock(block, 200);
  EXPECT_TRUE(accepted.ok()) << accepted.ToString();
}

// ------------------------------------------------------ repeated transactions

using RepeatedTxTest = ChainFixture;

TEST_F(RepeatedTxTest, CoinbaseRepeatRejectedOnItsBranchOnly) {
  // RawBlock's coinbase pays reward + fees to keys_[0] with a fixed nonce,
  // so two raw blocks with equal fees carry one coinbase id. Accepted, the
  // second would re-create the first one's unspent reward over itself and
  // count its value twice (Bitcoin's BIP30).
  const crypto::Hash256 genesis = chain().head()->hash;
  Block first = RawBlock({Transfer(1, 25, 1)}, /*fees=*/1);
  Seal(&first);
  ASSERT_TRUE(chain().SubmitBlock(first, 100).ok());

  Block repeat = RawBlock({Transfer(2, 25, 2)}, /*fees=*/1);
  ASSERT_EQ(repeat.txs[0].Id(), first.txs[0].Id());
  Seal(&repeat);
  const Status status = chain().SubmitBlock(repeat, 200);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "transaction already included on branch");
  EXPECT_EQ(chain().head()->hash, first.header.Hash());
  const LedgerState head = chain().StateAtHead();
  EXPECT_EQ(head.LiquidValue(), testutil::LiquidValueScan(head));

  // On a sibling of `first` the same coinbase is new: its outputs live in
  // the sibling's own state.
  Block sibling = repeat;
  sibling.header.prev_hash = genesis;
  sibling.header.height = 1;
  Seal(&sibling);
  ASSERT_TRUE(chain().SubmitBlock(sibling, 300).ok());
  const LedgerState fork = chain().StateAt(*chain().Get(sibling.header.Hash()));
  EXPECT_NE(fork.utxos.Find(OutPoint{first.txs[0].Id(), 0}), nullptr);
  EXPECT_EQ(fork.LiquidValue(), testutil::LiquidValueScan(fork));
}

// Every other kind spends an input its first inclusion spent, so a repeat
// fails staging; no lookup on the branch is needed.
TEST_F(RepeatedTxTest, TransferRepeatedInALaterBlockRejected) {
  const Transaction tx = Transfer(1, 25, 1);
  RaceAndSubmit(std::vector<const Transaction*>{&tx}, /*miners=*/1, 100);
  Block repeat = RawBlock({Transfer(2, 25, 2), tx}, /*fees=*/2);
  SealUnexecuted(&repeat);
  ExpectRejected(repeat, "input not in UTXO set (double spend?)");
}

TEST_F(RepeatedTxTest, TransferTwiceInOneBlockRejected) {
  const Transaction tx = Transfer(1, 25, 1);
  Block twice = RawBlock({tx, Transfer(2, 25, 2), tx}, /*fees=*/3);
  SealUnexecuted(&twice);
  ExpectRejected(twice, "input not in UTXO set (double spend?)");
}

TEST_F(RepeatedTxTest, DeployAndCallRepeatsRejected) {
  const Bytes secret{2, 7, 1, 8};
  const LedgerState s0 = chain().StateAtHead();
  const Bytes payload = Encode(contracts::HtlcInit{
      keys_[2].public_key(), crypto::Hash256::Of(secret), /*timelock=*/10'000});
  auto deploy =
      WalletFor(1).BuildDeploy(s0, contracts::kHtlcKind, payload, 300, 4, 1);
  ASSERT_TRUE(deploy.ok());
  auto redeem = WalletFor(2).BuildCall(s0, deploy->Id(),
                                       contracts::kRedeemFunction, secret, 2, 2);
  ASSERT_TRUE(redeem.ok());
  const Block mined = RaceAndSubmit(
      std::vector<const Transaction*>{&*deploy, &*redeem}, /*miners=*/1, 100);
  ASSERT_EQ(mined.txs.size(), 3u);
  ASSERT_TRUE(mined.receipts[2].success);

  Block deploy_again = RawBlock({*deploy}, /*fees=*/4);
  SealUnexecuted(&deploy_again);
  ExpectRejected(deploy_again, "input not in UTXO set (double spend?)");
  Block call_again = RawBlock({*redeem}, /*fees=*/2);
  SealUnexecuted(&call_again);
  ExpectRejected(call_again, "input not in UTXO set (double spend?)");
  EXPECT_EQ(chain().StateAtHead().contracts.size(), 1u);
}

TEST_F(RepeatedTxTest, TransferOnASiblingBranchAccepted) {
  const crypto::Hash256 genesis = chain().head()->hash;
  const Transaction tx = Transfer(1, 25, 1);
  const Block first =
      RaceAndSubmit(std::vector<const Transaction*>{&tx}, /*miners=*/1, 100);

  // A sibling of `first` holds the same transfer: on its branch the input
  // is unspent.
  Block sibling = RawBlock({tx}, /*fees=*/1);
  sibling.header.prev_hash = genesis;
  sibling.header.height = 1;
  Seal(&sibling);
  ASSERT_TRUE(chain().SubmitBlock(sibling, 300).ok());
  EXPECT_EQ(chain().head()->hash, first.header.Hash());  // First seen wins.
  const LedgerState fork = chain().StateAt(*chain().Get(sibling.header.Hash()));
  EXPECT_NE(fork.utxos.Find(OutPoint{tx.Id(), 0}), nullptr);
  EXPECT_EQ(fork.utxos.Find(tx.inputs()[0]), nullptr);
  EXPECT_EQ(fork.LiquidValue(), testutil::LiquidValueScan(fork));
}

// A fresh selection on a fork parent reads that parent's branch, not the
// head's: a candidate the fork already holds is skipped without using
// capacity, and one only the head's branch holds is chosen.
TEST_F(RepeatedTxTest, ForkSelectionSkipsItsBranchCandidateWithoutCapacity) {
  Reset(/*capacity=*/2);
  const crypto::Hash256 genesis = chain().head()->hash;
  const Transaction on_head = Transfer(0, 60, 1);
  const Transaction on_fork = Transfer(2, 60, 2);
  const Transaction pending = Transfer(4, 60, 3);
  RaceAndSubmit(std::vector<const Transaction*>{&on_head}, /*miners=*/1, 100);
  Block fork_1 = Assemble(chain(), genesis,
                          std::vector<const Transaction*>{&on_fork}, Miner(1),
                          150);
  Rng rng(150);
  chain::MineHeader(&fork_1.header, &rng);
  ASSERT_TRUE(chain().SubmitBlock(fork_1, 150).ok());
  const crypto::Hash256 fork = fork_1.header.Hash();
  ASSERT_NE(chain().head()->hash, fork);

  const std::vector<const Transaction*> candidates{&on_fork, &on_head,
                                                   &pending};
  Block block = ExpectMatchesFresh(fork, candidates, Miner(2), 200);
  ASSERT_EQ(block.txs.size(), 3u);
  EXPECT_EQ(block.txs[1].Id(), on_head.Id());
  EXPECT_EQ(block.txs[2].Id(), pending.Id());
  rng = Rng(200);
  chain::MineHeader(&block.header, &rng);
  ASSERT_TRUE(chain().SubmitBlock(block, 200).ok());
  EXPECT_EQ(chain().head()->hash, block.header.Hash());  // The fork wins.
  const LedgerState head = chain().StateAtHead();
  EXPECT_EQ(head.LiquidValue(), testutil::LiquidValueScan(head));
}

}  // namespace
}  // namespace ac3
