// Light-client tests: Section 4.3's second validation technique — a
// header-only node of a foreign chain that verifies PoW/linkage and
// answers inclusion queries from served Merkle proofs.

#include "src/chain/light_client.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ac3::chain {
namespace {

const crypto::KeyPair kAlice = crypto::KeyPair::FromSeed(31);
const crypto::KeyPair kBob = crypto::KeyPair::FromSeed(32);

class LightClientTest : public ::testing::Test {
 protected:
  LightClientTest()
      : full_(TestChainParams(),
              testutil::Fund({kAlice.public_key(), kBob.public_key()}, 2000),
              /*seed=*/401),
        wallet_(kAlice, full_.chain().id()),
        client_(full_.chain().genesis()->block.header,
                full_.chain().params().difficulty_bits) {}

  /// Includes one transfer and buries it, returning (tx, its block hash).
  std::pair<Transaction, crypto::Hash256> IncludeTransfer(uint32_t depth) {
    auto tx = wallet_.BuildTransfer(full_.chain().StateAtHead(),
                                    kBob.public_key(), 10, 1, nonce_++);
    EXPECT_TRUE(tx.ok());
    EXPECT_TRUE(full_.MineTxToDepth(*tx, depth).ok());
    auto location = full_.chain().FindTx(tx->Id());
    EXPECT_TRUE(location.has_value());
    return {*tx, location->entry->hash};
  }

  /// A full node serving a Merkle proof for a tx in `block_hash`.
  crypto::MerkleProof ServeProof(const crypto::Hash256& block_hash,
                                 const crypto::Hash256& tx_id) {
    const BlockEntry* entry = full_.chain().Get(block_hash);
    EXPECT_NE(entry, nullptr);
    crypto::MerkleTree tree(entry->block.TxLeaves());
    auto proof = tree.Prove(full_.chain().FindTx(tx_id)->index);
    EXPECT_TRUE(proof.ok());
    return *proof;
  }

  testutil::TestChain full_;
  Wallet wallet_;
  LightClient client_;
  uint64_t nonce_ = 1;
};

TEST_F(LightClientTest, SyncTracksCanonicalHead) {
  ASSERT_TRUE(full_.MineEmpty(5).ok());
  ASSERT_TRUE(client_.SyncFrom(full_.chain()).ok());
  EXPECT_EQ(client_.height(), full_.chain().height());
  EXPECT_EQ(client_.head().Hash(), full_.chain().head()->hash);
  EXPECT_EQ(client_.header_count(), 6u);  // genesis + 5
}

TEST_F(LightClientTest, RejectsOrphanHeader) {
  ASSERT_TRUE(full_.MineEmpty(3).ok());
  auto headers = full_.chain().HeadersAfter(full_.chain().genesis()->hash);
  ASSERT_TRUE(headers.ok());
  // Skip the first header: the second has no known parent.
  Status status = client_.AcceptHeader((*headers)[1]);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(LightClientTest, RejectsTamperedPow) {
  ASSERT_TRUE(full_.MineEmpty(1).ok());
  auto headers = full_.chain().HeadersAfter(full_.chain().genesis()->hash);
  ASSERT_TRUE(headers.ok());
  BlockHeader tampered = (*headers)[0];
  tampered.nonce ^= 1;
  Status status = client_.AcceptHeader(tampered);
  EXPECT_EQ(status.code(), StatusCode::kVerificationFailed);
}

TEST_F(LightClientTest, RejectsWrongDeclaredDifficulty) {
  ASSERT_TRUE(full_.MineEmpty(1).ok());
  auto headers = full_.chain().HeadersAfter(full_.chain().genesis()->hash);
  BlockHeader weak = (*headers)[0];
  weak.difficulty_bits = 0;  // Declares trivial PoW.
  Status status = client_.AcceptHeader(weak);
  EXPECT_EQ(status.code(), StatusCode::kVerificationFailed);
}

TEST_F(LightClientTest, AcceptHeaderIsIdempotent) {
  ASSERT_TRUE(full_.MineEmpty(2).ok());
  ASSERT_TRUE(client_.SyncFrom(full_.chain()).ok());
  const size_t count = client_.header_count();
  ASSERT_TRUE(client_.SyncFrom(full_.chain()).ok());
  EXPECT_EQ(client_.header_count(), count);
}

TEST_F(LightClientTest, VerifiesServedInclusionProof) {
  auto [tx, block_hash] = IncludeTransfer(/*depth=*/3);
  ASSERT_TRUE(client_.SyncFrom(full_.chain()).ok());
  crypto::MerkleProof proof = ServeProof(block_hash, tx.Id());
  EXPECT_TRUE(client_.VerifyInclusion(block_hash, tx.Id(), proof,
                                      /*min_confirmations=*/3)
                  .ok());
}

TEST_F(LightClientTest, InclusionDemandsBurialDepth) {
  auto [tx, block_hash] = IncludeTransfer(/*depth=*/1);
  ASSERT_TRUE(client_.SyncFrom(full_.chain()).ok());
  crypto::MerkleProof proof = ServeProof(block_hash, tx.Id());
  Status shallow = client_.VerifyInclusion(block_hash, tx.Id(), proof,
                                           /*min_confirmations=*/4);
  EXPECT_EQ(shallow.code(), StatusCode::kVerificationFailed);
}

TEST_F(LightClientTest, InclusionRejectsForeignLeaf) {
  auto [tx, block_hash] = IncludeTransfer(/*depth=*/2);
  ASSERT_TRUE(client_.SyncFrom(full_.chain()).ok());
  crypto::MerkleProof proof = ServeProof(block_hash, tx.Id());
  const crypto::Hash256 other = crypto::Hash256::Of(Bytes{0xDD});
  EXPECT_FALSE(client_.VerifyInclusion(block_hash, other, proof, 0).ok());
}

TEST_F(LightClientTest, InclusionRejectsAReceiptProof) {
  auto [tx, block_hash] = IncludeTransfer(/*depth=*/2);
  ASSERT_TRUE(client_.SyncFrom(full_.chain()).ok());
  const BlockEntry* entry = full_.chain().Get(block_hash);
  const uint32_t index = full_.chain().FindTx(tx.Id())->index;
  crypto::MerkleTree tree(entry->block.ReceiptLeaves());
  auto proof = tree.Prove(index);
  ASSERT_TRUE(proof.ok());
  const crypto::Hash256 leaf = entry->block.receipts[index].LeafHash();
  ASSERT_TRUE(crypto::VerifyMerkleProof(leaf, *proof,
                                        entry->block.header.receipt_root));
  // A proof that binds the receipt root does not pass against the tx root.
  EXPECT_FALSE(client_.VerifyInclusion(block_hash, leaf, *proof, 1).ok());
}

TEST_F(LightClientTest, FollowsHeaviestForkLikeFullNode) {
  // Two branches from the same parent; the client must converge on the
  // heavier one exactly as the full node does.
  ASSERT_TRUE(full_.MineEmpty(1).ok());
  const crypto::Hash256 fork_parent = full_.chain().head()->hash;
  ASSERT_TRUE(full_.MineBlockOn(fork_parent, {}).ok());
  const crypto::Hash256 branch_a = full_.chain().head()->hash;
  ASSERT_TRUE(full_.MineBlockOn(fork_parent, {}).ok());
  // Feed EVERY known header (both branches) in true arrival order — ties
  // between equal-work tips break toward the first seen, as on the node.
  std::vector<BlockHeader> all;
  for (const chain::BlockEntry* entry : full_.chain().arrival_order()) {
    if (entry != full_.chain().genesis()) all.push_back(entry->block.header);
  }
  ASSERT_TRUE(client_.AcceptHeaders(all).ok());
  EXPECT_TRUE(client_.IsCanonical(branch_a));

  // Extend the other branch: both full node and light client reorg.
  crypto::Hash256 branch_b;
  for (const chain::BlockEntry* entry : full_.chain().arrival_order()) {
    if (entry->block.header.prev_hash == fork_parent &&
        entry->hash != branch_a) {
      branch_b = entry->hash;
    }
  }
  ASSERT_FALSE(branch_b.IsZero());
  ASSERT_TRUE(full_.MineBlockOn(branch_b, {}).ok());
  ASSERT_TRUE(client_.AcceptHeader(full_.chain().head()->block.header).ok());
  EXPECT_FALSE(client_.IsCanonical(branch_a));
  EXPECT_EQ(client_.head().Hash(), full_.chain().head()->hash);
  EXPECT_FALSE(full_.chain().IsCanonical(branch_a));
}

TEST_F(LightClientTest, StoresOnlyHeaders) {
  // The storage argument of Section 4.3: the light client keeps one header
  // per block while the full node keeps bodies + per-branch state.
  ASSERT_TRUE(full_.MineEmpty(10).ok());
  ASSERT_TRUE(client_.SyncFrom(full_.chain()).ok());
  EXPECT_EQ(client_.header_count(), full_.chain().block_count());
  // (The size comparison is quantified by the ablation_validation study.)
}

}  // namespace
}  // namespace ac3::chain
