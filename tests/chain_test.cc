// Unit tests for the blockchain substrate: transactions, blocks, PoW,
// ledger execution, fork choice, canonical queries, mempool, wallet, and
// the Poisson mining network.

#include <gtest/gtest.h>

#include "src/chain/blockchain.h"
#include "src/chain/mempool.h"
#include "src/chain/mining.h"
#include "src/chain/pow.h"
#include "src/chain/wallet.h"
#include "src/sim/simulation.h"
#include "tests/test_util.h"

namespace ac3::chain {
namespace {

// Disambiguates the vector/span AssembleBlock overloads at empty-candidate
// call sites ({} binds to both).
const std::vector<Transaction> kNoCandidates;

using testutil::Fund;
using testutil::TestChain;

ChainParams FastParams(ChainId id = 0) {
  ChainParams p = TestChainParams();
  p.id = id;
  return p;
}

crypto::KeyPair Alice() { return crypto::KeyPair::FromSeed(1001); }
crypto::KeyPair Bob() { return crypto::KeyPair::FromSeed(1002); }

// ------------------------------------------------------------ transactions

TEST(TransactionTest, EncodeDecodeRoundTrip) {
  Transaction tx;
  tx.type = TxType::kTransfer;
  tx.chain_id = 3;
  tx.inputs.push_back(OutPoint{crypto::Hash256::OfString("prev"), 1});
  tx.outputs.push_back(TxOutput{25, Alice().public_key()});
  tx.fee = 2;
  tx.nonce = 99;
  tx.SignWith(Bob());

  auto decoded = Transaction::Decode(tx.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->Id(), tx.Id());
  EXPECT_EQ(decoded->outputs[0].value, 25u);
  EXPECT_TRUE(decoded->VerifySignature());
}

TEST(TransactionTest, SignatureCoversContent) {
  Transaction tx;
  tx.type = TxType::kTransfer;
  tx.outputs.push_back(TxOutput{10, Alice().public_key()});
  tx.SignWith(Bob());
  EXPECT_TRUE(tx.VerifySignature());
  tx.outputs[0].value = 11;  // Tamper.
  EXPECT_FALSE(tx.VerifySignature());
}

TEST(TransactionTest, NonceChangesId) {
  Transaction a, b;
  a.type = b.type = TxType::kTransfer;
  a.nonce = 1;
  b.nonce = 2;
  a.SignWith(Alice());
  b.SignWith(Alice());
  EXPECT_NE(a.Id(), b.Id());
}

// ------------------------------------------------------------------ blocks

TEST(BlockTest, HeaderRoundTrip) {
  BlockHeader h;
  h.chain_id = 2;
  h.height = 5;
  h.prev_hash = crypto::Hash256::OfString("parent");
  h.tx_root = crypto::Hash256::OfString("txroot");
  h.receipt_root = crypto::Hash256::OfString("rcroot");
  h.time = 1234;
  h.difficulty_bits = 8;
  h.nonce = 42;

  Bytes encoded = h.Encode();
  ByteReader r(encoded);
  auto decoded = BlockHeader::Decode(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, h);
  EXPECT_EQ(decoded->Hash(), h.Hash());
}

TEST(PowTest, DifficultyZeroAlwaysPasses) {
  EXPECT_TRUE(HashMeetsDifficulty(crypto::Hash256::OfString("x"), 0));
}

TEST(PowTest, MineHeaderSatisfiesTarget) {
  Rng rng(5);
  BlockHeader h;
  h.difficulty_bits = 12;
  uint64_t evals = MineHeader(&h, &rng);
  EXPECT_GE(evals, 1u);
  EXPECT_TRUE(CheckProofOfWork(h));
}

TEST(PowTest, TamperedNonceFails) {
  Rng rng(5);
  BlockHeader h;
  h.difficulty_bits = 14;
  MineHeader(&h, &rng);
  ASSERT_TRUE(CheckProofOfWork(h));
  h.nonce ^= 0xdeadbeef;
  // Overwhelmingly likely to fail the 14-bit target.
  EXPECT_FALSE(CheckProofOfWork(h));
}

TEST(PowTest, WorkGrowsExponentially) {
  EXPECT_DOUBLE_EQ(WorkForDifficulty(10) * 2, WorkForDifficulty(11));
}

// ------------------------------------------------------------------ ledger

TEST(LedgerTest, GenesisFundsAllocations) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  EXPECT_EQ(tc.chain().StateAtHead().BalanceOf(Alice().public_key()), 500u);
  EXPECT_EQ(tc.chain().StateAtHead().TotalValue(), 500u);
}

TEST(LedgerTest, TransferMovesValue) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(), Bob().public_key(),
                                 120, 1, 1);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(tc.MineBlock({*tx}).ok());
  const LedgerState& state = tc.chain().StateAtHead();
  EXPECT_EQ(state.BalanceOf(Bob().public_key()), 120u);
  // 500 - 120 - 1 fee = 379 change.
  EXPECT_EQ(state.BalanceOf(Alice().public_key()), 379u);
}

TEST(LedgerTest, DoubleSpendRejected) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(), Bob().public_key(),
                                 100, 1, 1);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(tc.MineBlock({*tx}).ok());

  // Re-submitting the same transaction must not be re-included.
  ASSERT_TRUE(tc.MineBlock({*tx}).ok());
  EXPECT_EQ(tc.chain().StateAtHead().BalanceOf(Bob().public_key()), 100u);
}

TEST(LedgerTest, ForeignInputsRejected) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  // Bob tries to spend Alice's UTXO.
  Transaction theft;
  theft.type = TxType::kTransfer;
  theft.chain_id = 0;
  theft.inputs.push_back(OutPoint{tc.chain().genesis_tx().Id(), 0});
  theft.outputs.push_back(TxOutput{499, Bob().public_key()});
  theft.fee = 1;
  theft.SignWith(Bob());

  LedgerState state = tc.chain().StateAtHead();
  BlockEnv env{0, 1, 100};
  auto receipt = ApplyTransaction(&state, theft, env);
  EXPECT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.status().code(), StatusCode::kVerificationFailed);
}

TEST(LedgerTest, DuplicateInputOutpointRejected) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  // Listing the same 500-value outpoint twice must not let Alice claim
  // 1000 of outputs (value inflation).
  Transaction tx;
  tx.type = TxType::kTransfer;
  tx.chain_id = 0;
  const OutPoint funding{tc.chain().genesis_tx().Id(), 0};
  tx.inputs = {funding, funding};
  tx.outputs.push_back(TxOutput{999, Bob().public_key()});
  tx.fee = 1;
  tx.SignWith(Alice());

  LedgerState state = tc.chain().StateAtHead();
  BlockEnv env{0, 1, 100};
  auto receipt = ApplyTransaction(&state, tx, env);
  EXPECT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(state.TotalValue(), 500u);
}

TEST(LedgerTest, ValueImbalanceRejected) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  Transaction tx;
  tx.type = TxType::kTransfer;
  tx.chain_id = 0;
  tx.inputs.push_back(OutPoint{tc.chain().genesis_tx().Id(), 0});
  tx.outputs.push_back(TxOutput{600, Bob().public_key()});  // Inflates value.
  tx.fee = 0;
  tx.SignWith(Alice());

  LedgerState state = tc.chain().StateAtHead();
  BlockEnv env{0, 1, 100};
  EXPECT_FALSE(ApplyTransaction(&state, tx, env).ok());
}

TEST(LedgerTest, MergeAndSplitSemantics) {
  // Figure 2: merge three inputs into one output, then split.
  std::vector<TxOutput> allocations(3, TxOutput{100, Alice().public_key()});
  TestChain tc(FastParams(), allocations);
  Wallet alice(Alice(), 0);
  // Merge: transfer 299 to Bob (consumes all three 100s, fee 1).
  auto merge = alice.BuildTransfer(tc.chain().StateAtHead(),
                                   Bob().public_key(), 299, 1, 1);
  ASSERT_TRUE(merge.ok());
  EXPECT_EQ(merge->inputs.size(), 3u);
  ASSERT_TRUE(tc.MineBlock({*merge}).ok());

  // Split: Bob sends 50 back, keeps change.
  Wallet bob(Bob(), 0);
  auto split = bob.BuildTransfer(tc.chain().StateAtHead(),
                                 Alice().public_key(), 50, 1, 2);
  ASSERT_TRUE(split.ok());
  ASSERT_TRUE(tc.MineBlock({*split}).ok());
  EXPECT_EQ(tc.chain().StateAtHead().BalanceOf(Alice().public_key()), 50u);
  EXPECT_EQ(tc.chain().StateAtHead().BalanceOf(Bob().public_key()), 248u);
}

TEST(LedgerTest, TotalValueConservedPlusRewards) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(), Bob().public_key(),
                                 100, 2, 1);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(tc.MineBlock({*tx}).ok());
  // Genesis 500 + one block reward. The fee leaves Alice and re-enters the
  // system inside the coinbase, so only the reward is net-new value.
  EXPECT_EQ(tc.chain().StateAtHead().TotalValue(),
            500u + tc.chain().params().block_reward);
}

// ------------------------------------------------------------- fork choice

TEST(BlockchainTest, RejectsUnknownParent) {
  TestChain tc(FastParams(), {});
  Block orphan;
  orphan.header.chain_id = 0;
  orphan.header.height = 5;
  orphan.header.prev_hash = crypto::Hash256::OfString("nowhere");
  EXPECT_EQ(tc.chain().SubmitBlock(orphan, 0).code(), StatusCode::kNotFound);
}

TEST(BlockchainTest, RejectsBadPow) {
  TestChain tc(FastParams(), {});
  Rng rng(3);
  auto block = tc.chain().AssembleBlock(tc.chain().head()->hash, kNoCandidates,
                                        Alice().public_key(), 50, &rng);
  ASSERT_TRUE(block.ok());
  Block bad = *block;
  // Find a nonce that fails the target.
  do {
    ++bad.header.nonce;
  } while (CheckProofOfWork(bad.header));
  EXPECT_EQ(tc.chain().SubmitBlock(bad, 50).code(),
            StatusCode::kVerificationFailed);
}

TEST(BlockchainTest, RejectsTamperedReceipts) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 100));
  Rng rng(3);
  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(), Bob().public_key(),
                                 10, 1, 1);
  ASSERT_TRUE(tx.ok());
  auto block = tc.chain().AssembleBlock(tc.chain().head()->hash, {*tx},
                                        Alice().public_key(), 50, &rng);
  ASSERT_TRUE(block.ok());
  Block bad = *block;
  bad.receipts[1].note = "forged";
  bad.header.receipt_root = bad.ComputeReceiptRoot();
  MineHeader(&bad.header, &rng);
  EXPECT_EQ(tc.chain().SubmitBlock(bad, 50).code(),
            StatusCode::kVerificationFailed);
}

TEST(BlockchainTest, ForkResolvesToHeavierBranch) {
  TestChain tc(FastParams(), {});
  Rng rng(17);
  const BlockEntry* root = tc.chain().head();

  // Two competing children.
  auto a1 = tc.chain().AssembleBlock(root->hash, kNoCandidates, Alice().public_key(),
                                     100, &rng);
  auto b1 = tc.chain().AssembleBlock(root->hash, kNoCandidates, Bob().public_key(),
                                     100, &rng);
  ASSERT_TRUE(a1.ok() && b1.ok());
  ASSERT_TRUE(tc.chain().SubmitBlock(*a1, 100).ok());
  ASSERT_TRUE(tc.chain().SubmitBlock(*b1, 101).ok());
  // First seen (a1) wins the tie.
  EXPECT_EQ(tc.chain().head()->hash, a1->header.Hash());

  // Extend the b-branch: it becomes strictly heavier.
  auto b2 = tc.chain().AssembleBlock(b1->header.Hash(), kNoCandidates,
                                     Bob().public_key(), 200, &rng);
  ASSERT_TRUE(b2.ok());
  ASSERT_TRUE(tc.chain().SubmitBlock(*b2, 200).ok());
  EXPECT_EQ(tc.chain().head()->hash, b2->header.Hash());

  // The a-branch is no longer canonical.
  EXPECT_FALSE(tc.chain().IsCanonical(a1->header.Hash()));
  EXPECT_TRUE(tc.chain().IsCanonical(b1->header.Hash()));
}

TEST(BlockchainTest, ReorgRevertsState) {
  // A transfer included on a losing branch must not affect the winning
  // branch's state.
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 100));
  Rng rng(19);
  const BlockEntry* root = tc.chain().head();

  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(), Bob().public_key(),
                                 50, 1, 1);
  ASSERT_TRUE(tx.ok());

  // Use a neutral miner key so coinbase rewards don't pollute balances.
  const crypto::PublicKey miner = crypto::KeyPair::FromSeed(9999).public_key();
  auto with_tx =
      tc.chain().AssembleBlock(root->hash, {*tx}, miner, 100, &rng);
  auto without1 = tc.chain().AssembleBlock(root->hash, kNoCandidates, miner, 100, &rng);
  ASSERT_TRUE(with_tx.ok() && without1.ok());
  ASSERT_TRUE(tc.chain().SubmitBlock(*with_tx, 100).ok());
  ASSERT_TRUE(tc.chain().SubmitBlock(*without1, 101).ok());
  EXPECT_EQ(tc.chain().StateAtHead().BalanceOf(Bob().public_key()), 50u);

  auto without2 = tc.chain().AssembleBlock(without1->header.Hash(), kNoCandidates, miner,
                                           200, &rng);
  ASSERT_TRUE(without2.ok());
  ASSERT_TRUE(tc.chain().SubmitBlock(*without2, 200).ok());
  // Reorged to the empty branch: Bob never got paid there.
  EXPECT_EQ(tc.chain().StateAtHead().BalanceOf(Bob().public_key()), 0u);
}

TEST(BlockchainTest, ConfirmationsAndStableBlock) {
  TestChain tc(FastParams(), {});
  ASSERT_TRUE(tc.MineEmpty(10).ok());
  const BlockEntry* head = tc.chain().head();
  EXPECT_EQ(head->block.header.height, 10u);
  EXPECT_EQ(tc.chain().ConfirmationsOf(head->hash), 0u);
  EXPECT_EQ(tc.chain().ConfirmationsOf(tc.chain().genesis()->hash), 10u);

  const BlockEntry* stable = tc.chain().StableBlock(6);
  EXPECT_EQ(stable->block.header.height, 4u);
  // Clamped at genesis.
  EXPECT_EQ(tc.chain().StableBlock(100)->hash, tc.chain().genesis()->hash);
}

TEST(BlockchainTest, HeadersAfterReturnsOrderedSuffix) {
  TestChain tc(FastParams(), {});
  ASSERT_TRUE(tc.MineEmpty(5).ok());
  const BlockEntry* anchor = tc.chain().StableBlock(3);  // height 2.
  auto headers = tc.chain().HeadersAfter(anchor->hash);
  ASSERT_TRUE(headers.ok());
  ASSERT_EQ(headers->size(), 3u);
  EXPECT_EQ((*headers)[0].height, 3u);
  EXPECT_EQ((*headers)[2].height, 5u);
  EXPECT_EQ((*headers)[0].prev_hash, anchor->hash);
}

TEST(BlockchainTest, FindTxLocatesCanonicalInclusion) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 100));
  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(), Bob().public_key(),
                                 10, 1, 7);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(tc.MineBlock({*tx}).ok());
  auto loc = tc.chain().FindTx(tx->Id());
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->index, 1u);  // After the coinbase.
  EXPECT_FALSE(tc.chain().FindTx(crypto::Hash256::OfString("no")).has_value());
}

// ----------------------------------------------------------------- mempool

TEST(MempoolTest, VisibilityByArrivalTime) {
  Mempool pool;
  Transaction tx;
  tx.type = TxType::kTransfer;
  tx.nonce = 1;
  tx.SignWith(Alice());
  ASSERT_TRUE(pool.Submit(tx, 100).ok());
  EXPECT_TRUE(pool.CandidatePointersAt(50, {}).empty());
  EXPECT_EQ(pool.CandidatePointersAt(100, {}).size(), 1u);
}

TEST(MempoolTest, RejectsDuplicates) {
  Mempool pool;
  Transaction tx;
  tx.type = TxType::kTransfer;
  tx.nonce = 1;
  tx.SignWith(Alice());
  ASSERT_TRUE(pool.Submit(tx, 0).ok());
  EXPECT_EQ(pool.Submit(tx, 5).code(), StatusCode::kAlreadyExists);
}

TEST(MempoolTest, ExcludesIncluded) {
  Mempool pool;
  Transaction tx;
  tx.type = TxType::kTransfer;
  tx.nonce = 1;
  tx.SignWith(Alice());
  ASSERT_TRUE(pool.Submit(tx, 0).ok());
  std::set<crypto::Hash256> included = {tx.Id()};
  EXPECT_TRUE(pool.CandidatePointersAt(10, [&](const crypto::Hash256& id) {
                    return included.count(id) > 0;
                  }).empty());
  pool.Prune(std::vector<crypto::Hash256>(included.begin(), included.end()));
  EXPECT_EQ(pool.size(), 0u);
}

// ------------------------------------------------------------------ wallet

TEST(WalletTest, ReservationsPreventSelfDoubleSpend) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 100));
  Wallet wallet(Alice(), 0);
  auto tx1 = wallet.BuildTransfer(tc.chain().StateAtHead(),
                                  Bob().public_key(), 40, 1, 1);
  ASSERT_TRUE(tx1.ok());
  // The single genesis UTXO is now reserved; a second build must fail.
  auto tx2 = wallet.BuildTransfer(tc.chain().StateAtHead(),
                                  Bob().public_key(), 40, 1, 2);
  EXPECT_FALSE(tx2.ok());
  wallet.ClearReservations();
  auto tx3 = wallet.BuildTransfer(tc.chain().StateAtHead(),
                                  Bob().public_key(), 40, 1, 3);
  EXPECT_TRUE(tx3.ok());
}

TEST(WalletTest, InsufficientFunds) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 10));
  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(), Bob().public_key(),
                                 100, 1, 1);
  EXPECT_EQ(tx.status().code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------------------ mining

TEST(MiningNetworkTest, ProducesBlocksAndIncludesTxs) {
  sim::Simulation sim(101);
  ChainParams params = FastParams();
  Blockchain chain(params, Fund({Alice().public_key()}, 1000));
  Mempool pool;
  MiningNetwork miners(&sim, &chain, &pool, MiningConfig{4, Milliseconds(20)});

  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(chain.StateAtHead(), Bob().public_key(),
                                 100, 1, 1);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(pool.Submit(*tx, 0).ok());

  miners.Start();
  sim.RunUntil(Seconds(5));
  miners.Stop();

  EXPECT_GT(chain.height(), 10u);
  EXPECT_TRUE(chain.FindTx(tx->Id()).has_value());
  EXPECT_EQ(chain.StateAtHead().BalanceOf(Bob().public_key()), 100u);
}

TEST(MiningNetworkTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    sim::Simulation sim(seed);
    Blockchain chain(FastParams(), {});
    Mempool pool;
    MiningNetwork miners(&sim, &chain, &pool,
                         MiningConfig{3, Milliseconds(30)});
    miners.Start();
    sim.RunUntil(Seconds(3));
    miners.Stop();
    return chain.head()->hash;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(MiningNetworkTest, PrivateBranchOverridesHead) {
  sim::Simulation sim(55);
  Blockchain chain(FastParams(), {});
  Mempool pool;
  MiningNetwork miners(&sim, &chain, &pool, MiningConfig{2, Milliseconds(10)});
  miners.Start();
  sim.RunUntil(Seconds(2));
  miners.Stop();

  const uint64_t public_height = chain.height();
  ASSERT_GT(public_height, 3u);
  // Attacker mines a longer private branch from 3 blocks back.
  const BlockEntry* fork_point = chain.StableBlock(3);
  auto branch = miners.BuildPrivateBranch(fork_point->hash, 6, {},
                                          sim.Now() + 1);
  ASSERT_TRUE(branch.ok());
  ASSERT_TRUE(miners.PublishBranch(*branch).ok());
  // 51% attack succeeded: the private branch is now canonical.
  EXPECT_EQ(chain.head()->hash, branch->back().header.Hash());
  EXPECT_EQ(chain.height(), fork_point->block.header.height + 6);
}

}  // namespace
}  // namespace ac3::chain
