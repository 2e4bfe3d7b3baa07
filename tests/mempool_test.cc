// Mempool tests: FIFO candidate ordering, arrival-time visibility (a
// transaction gossiped at t is not minable before t), pruning, and the
// interaction with block capacity via CandidatePointersAt.

#include "src/chain/mempool.h"

#include <set>
#include <span>

#include <gtest/gtest.h>

#include "src/chain/wallet.h"
#include "tests/test_util.h"

namespace ac3::chain {
namespace {

const crypto::KeyPair kAlice = crypto::KeyPair::FromSeed(81);
const crypto::KeyPair kBob = crypto::KeyPair::FromSeed(82);

class MempoolTest : public ::testing::Test {
 protected:
  // Many small outputs so independent transfers never compete for inputs
  // (each build reserves what it spends).
  static std::vector<TxOutput> ManyOutputs() {
    std::vector<TxOutput> out;
    for (int i = 0; i < 80; ++i) {
      out.push_back(TxOutput{100, kAlice.public_key()});
    }
    return out;
  }

  MempoolTest()
      : world_(TestChainParams(), ManyOutputs(), /*seed=*/601),
        alice_(kAlice, world_.chain().id()) {}

  Transaction MakeTransfer(uint64_t nonce) {
    auto tx = alice_.BuildTransfer(world_.chain().StateAtHead(),
                                   kBob.public_key(), 10, 1, nonce);
    EXPECT_TRUE(tx.ok()) << tx.status();
    return *tx;
  }

  testutil::TestChain world_;
  Wallet alice_;
  /// Filter excluding exactly `ids` (which must outlive the call).
  static Mempool::TxFilter Excluding(const std::set<crypto::Hash256>& ids) {
    return [&ids](const crypto::Hash256& id) { return ids.count(id) > 0; };
  }

  Mempool pool_;
  const Mempool::TxFilter none_;
};

TEST_F(MempoolTest, CandidatesComeOutInArrivalOrder) {
  Transaction t1 = MakeTransfer(1);
  Transaction t2 = MakeTransfer(2);
  Transaction t3 = MakeTransfer(3);
  ASSERT_TRUE(pool_.Submit(t2, /*arrival=*/10).ok());
  ASSERT_TRUE(pool_.Submit(t1, /*arrival=*/20).ok());
  ASSERT_TRUE(pool_.Submit(t3, /*arrival=*/30).ok());
  auto candidates = pool_.CandidatePointersAt(/*now=*/100, none_);
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0]->Id(), t2.Id());
  EXPECT_EQ(candidates[1]->Id(), t1.Id());
  EXPECT_EQ(candidates[2]->Id(), t3.Id());
}

TEST_F(MempoolTest, FutureArrivalsAreInvisible) {
  Transaction tx = MakeTransfer(1);
  ASSERT_TRUE(pool_.Submit(tx, /*arrival=*/500).ok());
  EXPECT_TRUE(pool_.CandidatePointersAt(/*now=*/499, none_).empty());
  EXPECT_EQ(pool_.CandidatePointersAt(/*now=*/500, none_).size(), 1u);
}

TEST_F(MempoolTest, DuplicateSubmissionRejectedButHarmless) {
  Transaction tx = MakeTransfer(1);
  ASSERT_TRUE(pool_.Submit(tx, 0).ok());
  Status again = pool_.Submit(tx, 5);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(pool_.size(), 1u);
}

TEST_F(MempoolTest, IncludedTransactionsAreFiltered) {
  Transaction t1 = MakeTransfer(1);
  Transaction t2 = MakeTransfer(2);
  ASSERT_TRUE(pool_.Submit(t1, 0).ok());
  ASSERT_TRUE(pool_.Submit(t2, 0).ok());
  std::set<crypto::Hash256> included{t1.Id()};
  auto candidates = pool_.CandidatePointersAt(100, Excluding(included));
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0]->Id(), t2.Id());
}

TEST_F(MempoolTest, PruneDropsEntriesPermanently) {
  Transaction t1 = MakeTransfer(1);
  Transaction t2 = MakeTransfer(2);
  ASSERT_TRUE(pool_.Submit(t1, 0).ok());
  ASSERT_TRUE(pool_.Submit(t2, 0).ok());
  const std::vector<crypto::Hash256> included{t1.Id()};
  pool_.Prune(included);
  EXPECT_EQ(pool_.size(), 1u);
  EXPECT_FALSE(pool_.Contains(t1.Id()));
  EXPECT_TRUE(pool_.Contains(t2.Id()));
  auto candidates = pool_.CandidatePointersAt(100, none_);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0]->Id(), t2.Id());
}

TEST_F(MempoolTest, CapacityIsEnforcedByBlockAssemblyNotThePool) {
  // The pool returns every visible candidate; AssembleBlock applies the
  // per-block cap. Verify the division of labor end to end.
  const size_t capacity = world_.chain().params().max_block_txs;
  std::vector<Transaction> batch;
  for (size_t i = 0; i < capacity + 5; ++i) {
    Transaction tx = MakeTransfer(static_cast<uint64_t>(i + 1));
    ASSERT_TRUE(pool_.Submit(tx, 0).ok());
    batch.push_back(tx);
  }
  auto candidates = pool_.CandidatePointersAt(100, none_);
  EXPECT_EQ(candidates.size(), capacity + 5);
  Rng rng(1);
  auto block = world_.chain().AssembleBlock(world_.chain().head()->hash,
                                            candidates,
                                            kAlice.public_key(), 100, &rng);
  ASSERT_TRUE(block.ok());
  // +1 coinbase; the overflow stays pooled for the next block.
  EXPECT_LE(block->txs.size(), capacity + 1);
}

// ---------------------------------------------- batched ingestion

TEST_F(MempoolTest, SubmitBatchMatchesSerialSubmit) {
  std::vector<Transaction> batch;
  for (uint64_t i = 1; i <= 20; ++i) batch.push_back(MakeTransfer(i));

  Mempool serial;
  for (const Transaction& tx : batch) {
    ASSERT_TRUE(serial.Submit(tx, /*arrival=*/40).ok());
  }
  Mempool batched;
  auto result =
      batched.SubmitBatch(std::span<const Transaction>(batch), /*arrival=*/40);
  EXPECT_EQ(result.accepted, batch.size());
  EXPECT_EQ(batched.size(), serial.size());
  for (const Transaction& tx : batch) EXPECT_TRUE(batched.Contains(tx.Id()));
  auto serial_candidates = serial.CandidatePointersAt(100, none_);
  auto batched_candidates = batched.CandidatePointersAt(100, none_);
  ASSERT_EQ(batched_candidates.size(), serial_candidates.size());
  for (size_t i = 0; i < serial_candidates.size(); ++i) {
    EXPECT_EQ(batched_candidates[i]->Id(), serial_candidates[i]->Id());
  }
}

TEST_F(MempoolTest, SubmitBatchRejectsDuplicateInsideBatch) {
  Transaction t1 = MakeTransfer(1);
  Transaction t2 = MakeTransfer(2);
  std::vector<Transaction> batch{t1, t2, t1};
  auto result = pool_.SubmitBatch(std::span<const Transaction>(batch), 10);
  EXPECT_EQ(result.accepted, 2u);
  EXPECT_EQ(pool_.size(), 2u);
  // The first copy was queued, the repeat rejected: one entry, in order.
  auto candidates = pool_.CandidatePointersAt(100, none_);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0]->Id(), t1.Id());
  EXPECT_EQ(candidates[1]->Id(), t2.Id());
}

TEST_F(MempoolTest, SubmitBatchRejectsCrossBatchDuplicate) {
  Transaction t1 = MakeTransfer(1);
  ASSERT_TRUE(pool_.Submit(t1, 0).ok());
  Transaction t2 = MakeTransfer(2);
  std::vector<Transaction> batch{t1, t2};
  auto result = pool_.SubmitBatch(std::span<const Transaction>(batch), 10);
  EXPECT_EQ(result.accepted, 1u);
  EXPECT_EQ(pool_.size(), 2u);
  EXPECT_TRUE(pool_.Contains(t2.Id()));
  // The duplicate kept its original (earlier) arrival.
  auto candidates = pool_.CandidatePointersAt(100, none_);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0]->Id(), t1.Id());
  EXPECT_EQ(pool_.CandidatePointersAt(5, none_).size(), 1u);
}

TEST_F(MempoolTest, SubmitBatchKeepsArrivalOrderWhenBatchArrivesEarlier) {
  // A batch whose arrival predates the pool tail takes the non-monotone
  // path; visibility ordering must still be arrival-sorted.
  Transaction late = MakeTransfer(1);
  ASSERT_TRUE(pool_.Submit(late, /*arrival=*/100).ok());
  std::vector<Transaction> batch{MakeTransfer(2), MakeTransfer(3)};
  auto result = pool_.SubmitBatch(std::span<const Transaction>(batch),
                                  /*arrival=*/50);
  EXPECT_EQ(result.accepted, 2u);
  auto candidates = pool_.CandidatePointersAt(200, none_);
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0]->Id(), batch[0].Id());
  EXPECT_EQ(candidates[1]->Id(), batch[1].Id());
  EXPECT_EQ(candidates[2]->Id(), late.Id());
  EXPECT_TRUE(pool_.CandidatePointersAt(60, none_).size() == 2u);
}

TEST_F(MempoolTest, PruneUnsortedIdsWithUnknownAndDuplicate) {
  std::vector<Transaction> batch;
  for (uint64_t i = 1; i <= 10; ++i) batch.push_back(MakeTransfer(i));
  for (const Transaction& tx : batch) ASSERT_TRUE(pool_.Submit(tx, 0).ok());
  // Unsorted, with an unknown id and a repeated id mixed in.
  const std::vector<crypto::Hash256> drop{
      batch[7].Id(), batch[1].Id(), crypto::Hash256::Of(Bytes{9, 9}),
      batch[4].Id(), batch[1].Id()};
  pool_.Prune(drop);
  ASSERT_EQ(pool_.size(), 7u);
  // Survivors keep arrival order.
  const auto survivors = pool_.CandidatePointersAt(100, none_);
  const std::vector<size_t> kept{0, 2, 3, 5, 6, 8, 9};
  ASSERT_EQ(survivors.size(), kept.size());
  for (size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(survivors[i]->Id(), batch[kept[i]].Id());
    EXPECT_TRUE(pool_.Contains(batch[kept[i]].Id()));
  }
}

}  // namespace
}  // namespace ac3::chain
