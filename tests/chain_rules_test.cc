// The chain rules, each stated once: the header rule (CheckHeaderLink)
// behind the full node, the light node and relay evidence (Section 4.3's
// three validation techniques); the fork choice (ForkChoicePrefers) behind
// the canonical head, every miner's visible head and the light client's
// head (Section 2.1); and the "call confirmed at depth d" query
// (Blockchain::CallConfirmedAtDepth) the engines settle and decide on.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/chain/blockchain.h"
#include "src/chain/light_client.h"
#include "src/chain/mempool.h"
#include "src/chain/mining.h"
#include "src/chain/pow.h"
#include "src/chain/wallet.h"
#include "src/contracts/evidence.h"
#include "src/contracts/htlc_contract.h"
#include "src/crypto/merkle.h"
#include "src/sim/simulation.h"
#include "tests/test_util.h"

namespace ac3::chain {
namespace {

const crypto::KeyPair kAlice = crypto::KeyPair::FromSeed(71);
const crypto::KeyPair kBob = crypto::KeyPair::FromSeed(72);
const std::vector<Transaction> kNoCandidates;

// ---- the header rule -------------------------------------------------------

/// A chain of genesis and one block, a light client synced to it, and an
/// unsubmitted block extending its head: the header each row breaks.
class HeaderRuleTest : public ::testing::Test {
 protected:
  HeaderRuleTest()
      : full_(TestChainParams(), testutil::Fund({kAlice.public_key()}, 1000),
              /*seed=*/73),
        client_(full_.chain().genesis()->block.header,
                full_.chain().params().difficulty_bits) {}

  void SetUp() override {
    ASSERT_TRUE(full_.MineEmpty(1).ok());
    ASSERT_TRUE(client_.SyncFrom(full_.chain()).ok());
    parent_ = full_.chain().head();
    Result<Block> block = full_.chain().AssembleBlock(
        parent_->hash, kNoCandidates, kBob.public_key(), 500, &rng_);
    ASSERT_TRUE(block.ok()) << block.status();
    block_ = *block;
  }

  /// Mines `header` again, so its proof of work holds for whatever it
  /// declares now.
  void Remine(BlockHeader* header) { MineHeader(header, &rng_); }

  /// The full node's verdict on `block`.
  Status SubmitToFullNode(const Block& block) {
    return full_.chain().SubmitBlock(block, 600);
  }

  /// The light client's verdict on `block`'s header.
  Status AcceptAtLightClient(const Block& block) {
    return client_.AcceptHeader(block.header);
  }

  /// The relay's verdict: evidence of `block`'s coinbase in its own
  /// header, over the stored checkpoint `parent_`.
  Status VerifyAsEvidence(const Block& block) {
    contracts::HeaderChainEvidence evidence;
    evidence.headers = {block.header};
    evidence.leaf = Encode(block.txs[0]);
    Result<crypto::MerkleProof> proof =
        crypto::MerkleTree(block.TxLeaves()).Prove(0);
    EXPECT_TRUE(proof.ok());
    evidence.proof = *proof;
    return contracts::VerifyHeaderChainEvidence(
        parent_->block.header, full_.chain().params().difficulty_bits,
        evidence, /*min_confirmations=*/0);
  }

  testutil::TestChain full_;
  LightClient client_;
  Rng rng_{74};
  const BlockEntry* parent_ = nullptr;
  Block block_;
};

TEST_F(HeaderRuleTest, EachBrokenRuleFailsAllThreeValidators) {
  struct Row {
    const char* rule;
    void (*breaks)(BlockHeader* header, const BlockEntry& parent);
  };
  const Row rows[] = {
      {"chain id",
       [](BlockHeader* h, const BlockEntry&) { h->chain_id += 1; }},
      // A known block that is not the parent: the full node and the light
      // client look the parent up by prev_hash, so an unknown hash would be
      // an orphan (NotFound) rather than a broken link.
      {"parent hash",
       [](BlockHeader* h, const BlockEntry& parent) {
         h->prev_hash = parent.parent->hash;
       }},
      {"height", [](BlockHeader* h, const BlockEntry&) { h->height += 1; }},
      {"difficulty",
       [](BlockHeader* h, const BlockEntry&) { h->difficulty_bits += 1; }},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.rule);
    Block block = block_;
    row.breaks(&block.header, *parent_);
    Remine(&block.header);  // Only the broken rule fails.
    ASSERT_TRUE(CheckProofOfWork(block.header));
    EXPECT_EQ(SubmitToFullNode(block).code(), StatusCode::kVerificationFailed);
    EXPECT_EQ(AcceptAtLightClient(block).code(),
              StatusCode::kVerificationFailed);
    EXPECT_EQ(VerifyAsEvidence(block).code(), StatusCode::kVerificationFailed);
  }

  SCOPED_TRACE("proof of work");
  Block block = block_;
  while (CheckProofOfWork(block.header)) ++block.header.nonce;
  EXPECT_EQ(SubmitToFullNode(block).code(), StatusCode::kVerificationFailed);
  EXPECT_EQ(AcceptAtLightClient(block).code(), StatusCode::kVerificationFailed);
  EXPECT_EQ(VerifyAsEvidence(block).code(), StatusCode::kVerificationFailed);
  EXPECT_EQ(full_.chain().head(), parent_);
  EXPECT_EQ(client_.head().Hash(), parent_->hash);
}

TEST_F(HeaderRuleTest, ValidHeaderPassesAllThreeValidators) {
  const Status relay = VerifyAsEvidence(block_);
  EXPECT_TRUE(relay.ok()) << relay;
  const Status light = AcceptAtLightClient(block_);
  EXPECT_TRUE(light.ok()) << light;
  const Status full = SubmitToFullNode(block_);
  EXPECT_TRUE(full.ok()) << full;
  EXPECT_EQ(full_.chain().head()->hash, block_.header.Hash());
  EXPECT_EQ(client_.head().Hash(), block_.header.Hash());
}

// ---- the fork choice -------------------------------------------------------

// Two equal-work siblings: the one that arrived first stays the canonical
// head, every miner's visible head once both have reached it (incremental
// and full scan alike), and the light client's head.
TEST(ForkChoiceTest, EqualWorkSiblingsKeepTheFirstArrivalEverywhere) {
  sim::Simulation sim(/*seed=*/75);
  Blockchain chain(TestChainParams(), {});
  Mempool mempool;
  MiningConfig config;
  config.miner_count = 4;
  config.max_propagation_delay = Milliseconds(40);
  MiningNetwork miners(&sim, &chain, &mempool, config);
  LightClient client(chain.genesis()->block.header,
                     chain.params().difficulty_bits);

  Rng rng(76);
  const crypto::Hash256 genesis = chain.genesis()->hash;
  Result<Block> first = chain.AssembleBlock(genesis, kNoCandidates,
                                            kAlice.public_key(), 100, &rng);
  Result<Block> second = chain.AssembleBlock(genesis, kNoCandidates,
                                             kBob.public_key(), 100, &rng);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_NE(first->header.Hash(), second->header.Hash());
  ASSERT_TRUE(chain.SubmitBlock(*first, 100).ok());
  ASSERT_TRUE(chain.SubmitBlock(*second, 101).ok());
  ASSERT_TRUE(client.AcceptHeader(first->header).ok());
  ASSERT_TRUE(client.AcceptHeader(second->header).ok());

  const BlockEntry* winner = chain.Get(first->header.Hash());
  const BlockEntry* loser = chain.Get(second->header.Hash());
  ASSERT_EQ(winner->total_work, loser->total_work);
  EXPECT_TRUE(ForkChoicePrefers(*winner, *loser));
  EXPECT_FALSE(ForkChoicePrefers(*loser, *winner));
  EXPECT_EQ(chain.head(), winner);
  EXPECT_EQ(client.head().Hash(), winner->hash);
  const TimePoint both_seen = 101 + config.max_propagation_delay;
  for (int miner = 0; miner < config.miner_count; ++miner) {
    EXPECT_EQ(miners.VisibleHead(miner, both_seen), winner) << miner;
    EXPECT_EQ(testutil::VisibleHeadScan(miners, chain, miner, both_seen),
              winner)
        << miner;
  }
}

// ---- the call-confirmation query -------------------------------------------

/// A chain with an HTLC deployed on it, Bob its recipient.
class CallConfirmedTest : public ::testing::Test {
 protected:
  CallConfirmedTest()
      : tc_(TestChainParams(),
            testutil::Fund({kAlice.public_key(), kBob.public_key()}, 100000),
            /*seed=*/77),
        alice_(kAlice, tc_.chain().id()),
        bob_(kBob, tc_.chain().id()) {}

  void SetUp() override {
    auto deploy = alice_.BuildDeploy(
        chain().StateAtHead(), contracts::kHtlcKind,
        Encode(contracts::HtlcInit{kBob.public_key(),
                                   crypto::Hash256::Of(kSecret), Minutes(60)}),
        500, chain().params().deploy_fee, /*nonce=*/1);
    ASSERT_TRUE(deploy.ok()) << deploy.status();
    contract_id_ = deploy->Id();
    ASSERT_TRUE(tc_.MineBlock({*deploy}).ok());
    deployed_ = chain().head();
  }

  Blockchain& chain() { return tc_.chain(); }

  /// Bob's redeem with `secret`, mined into the next block on the head.
  Transaction MineRedeem(const Bytes& secret, uint64_t nonce) {
    auto redeem = bob_.BuildCall(chain().StateAtHead(), contract_id_,
                                 contracts::kRedeemFunction, secret, 1, nonce);
    EXPECT_TRUE(redeem.ok()) << redeem.status();
    EXPECT_TRUE(tc_.MineBlock({*redeem}).ok());
    EXPECT_TRUE(chain().FindTx(redeem->Id()).has_value());
    return *redeem;
  }

  std::optional<TxLocation> Redeemed(uint64_t depth) {
    return chain().CallConfirmedAtDepth(contract_id_,
                                        contracts::kRedeemFunction, depth);
  }

  const Bytes kSecret{2, 7, 1, 8, 2, 8};
  testutil::TestChain tc_;
  Wallet alice_;
  Wallet bob_;
  crypto::Hash256 contract_id_;
  const BlockEntry* deployed_ = nullptr;
};

TEST_F(CallConfirmedTest, ReturnsTheCallAtExactlyItsDepth) {
  constexpr uint64_t kDepth = 3;
  const Transaction redeem = MineRedeem(kSecret, 1);
  const BlockEntry* redeemed = chain().head();
  ASSERT_TRUE(tc_.MineEmpty(kDepth - 1).ok());
  EXPECT_FALSE(Redeemed(kDepth).has_value());  // Only kDepth - 1 deep.
  ASSERT_TRUE(Redeemed(kDepth - 1).has_value());

  ASSERT_TRUE(tc_.MineEmpty(1).ok());
  const std::optional<TxLocation> call = Redeemed(kDepth);
  ASSERT_TRUE(call.has_value());
  EXPECT_EQ(call->entry, redeemed);
  EXPECT_EQ(call->entry->block.txs[call->index].Id(), redeem.Id());
  EXPECT_FALSE(Redeemed(kDepth + 1).has_value());
}

TEST_F(CallConfirmedTest, NeverReturnsARevertedCall) {
  const Transaction wrong = MineRedeem(Bytes{9, 9, 9}, 1);
  ASSERT_TRUE(tc_.MineEmpty(4).ok());
  // The call landed, with a failing receipt.
  const std::optional<TxLocation> landed = chain().FindCall(
      contract_id_, contracts::kRedeemFunction, /*require_success=*/false);
  ASSERT_TRUE(landed.has_value());
  EXPECT_EQ(landed->entry->block.txs[landed->index].Id(), wrong.Id());
  EXPECT_FALSE(landed->entry->block.receipts[landed->index].success);
  for (uint64_t depth : {0, 1, 4}) {
    EXPECT_FALSE(Redeemed(depth).has_value()) << depth;
  }
}

TEST_F(CallConfirmedTest, AReorgThatDropsTheCallDropsTheAnswer) {
  MineRedeem(kSecret, 1);
  ASSERT_TRUE(tc_.MineEmpty(1).ok());
  ASSERT_TRUE(Redeemed(1).has_value());

  // A three-block fork off the deploy block overtakes the redeem's branch.
  crypto::Hash256 tip = deployed_->hash;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(tc_.MineBlockOn(tip, {}).ok());
    tip = chain().arrival_order().back()->hash;
  }
  ASSERT_EQ(chain().head()->hash, tip);
  for (uint64_t depth : {0, 1}) {
    EXPECT_FALSE(Redeemed(depth).has_value()) << depth;
  }
}

}  // namespace
}  // namespace ac3::chain
