// Wallet tests: UTXO selection, change computation, the reservation
// discipline that lets one identity fund several in-flight transactions
// without self-double-spending, and value invariants of built transactions
// (the merge/split semantics of Figures 2-3 from the wallet's side).

#include "src/chain/wallet.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ac3::chain {
namespace {

const crypto::KeyPair kAlice = crypto::KeyPair::FromSeed(71);
const crypto::KeyPair kBob = crypto::KeyPair::FromSeed(72);

Amount OutputTotal(const Transaction& tx) {
  Amount total = 0;
  for (const TxOutput& out : tx.outputs()) total += out.value;
  return total;
}

class WalletTest : public ::testing::Test {
 protected:
  // Alice's funds arrive as three separate genesis outputs so selection
  // has real choices: 100 + 250 + 400.
  WalletTest()
      : world_(TestChainParams(),
               {TxOutput{100, kAlice.public_key()},
                TxOutput{250, kAlice.public_key()},
                TxOutput{400, kAlice.public_key()},
                TxOutput{500, kBob.public_key()}},
               /*seed=*/501),
        alice_(kAlice, world_.chain().id()) {}

  LedgerState State() { return world_.chain().StateAtHead(); }

  testutil::TestChain world_;
  Wallet alice_;
};

TEST_F(WalletTest, SpendableBalanceSumsOwnedUtxos) {
  EXPECT_EQ(alice_.SpendableBalance(State()), 750u);
}

TEST_F(WalletTest, TransferValueBalanceHolds) {
  auto tx = alice_.BuildTransfer(State(), kBob.public_key(), 300, 5, 1);
  ASSERT_TRUE(tx.ok()) << tx.status();
  // sum(inputs) = sum(outputs) + fee: the Figure 2 invariant.
  Amount input_total = 0;
  for (const OutPoint& in : tx->inputs()) {
    input_total += State().utxos.at(in).value;
  }
  EXPECT_EQ(input_total, OutputTotal(*tx) + tx->fee());
  // Bob receives exactly the amount; change (if any) returns to Alice.
  Amount to_bob = 0, to_alice = 0;
  for (const TxOutput& out : tx->outputs()) {
    if (out.owner == kBob.public_key()) to_bob += out.value;
    if (out.owner == kAlice.public_key()) to_alice += out.value;
  }
  EXPECT_EQ(to_bob, 300u);
  EXPECT_EQ(to_alice, input_total - 300u - 5u);
}

TEST_F(WalletTest, MergesUtxosWhenOneIsNotEnough) {
  // 600 exceeds any single UTXO: at least two inputs are merged.
  auto tx = alice_.BuildTransfer(State(), kBob.public_key(), 600, 5, 1);
  ASSERT_TRUE(tx.ok());
  EXPECT_GE(tx->inputs().size(), 2u);
}

TEST_F(WalletTest, InsufficientFundsReported) {
  auto tx = alice_.BuildTransfer(State(), kBob.public_key(), 800, 5, 1);
  EXPECT_FALSE(tx.ok());
  EXPECT_EQ(tx.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(WalletTest, ReservationsPreventOverlappingSpends) {
  // Two transfers built back-to-back from the same state must not share
  // inputs: the first reserves what it spends.
  auto t1 = alice_.BuildTransfer(State(), kBob.public_key(), 300, 5, 1);
  auto t2 = alice_.BuildTransfer(State(), kBob.public_key(), 300, 5, 2);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  for (const OutPoint& a : t1->inputs()) {
    for (const OutPoint& b : t2->inputs()) {
      EXPECT_FALSE(a == b) << "shared input = self double spend";
    }
  }
  // Both land in one block: only possible because inputs are disjoint.
  ASSERT_TRUE(world_.MineBlock({*t1, *t2}).ok());
  EXPECT_TRUE(world_.chain().FindTx(t1->Id()).has_value());
  EXPECT_TRUE(world_.chain().FindTx(t2->Id()).has_value());
}

TEST_F(WalletTest, DeployLocksContractValueSeparately) {
  auto tx = alice_.BuildDeploy(State(), "HTLC", Bytes{1, 2, 3},
                               /*locked_value=*/200, /*fee=*/4, 1);
  ASSERT_TRUE(tx.ok()) << tx.status();
  EXPECT_EQ(tx->type(), TxType::kDeploy);
  EXPECT_EQ(tx->contract_value(), 200u);
  // Inputs cover locked value + fee + change outputs.
  Amount input_total = 0;
  for (const OutPoint& in : tx->inputs()) {
    input_total += State().utxos.at(in).value;
  }
  EXPECT_EQ(input_total, OutputTotal(*tx) + tx->fee() + tx->contract_value());
}

TEST_F(WalletTest, CallSpendsOnlyTheFee) {
  auto tx = alice_.BuildCall(State(), crypto::Hash256::Of(Bytes{9}), "redeem",
                             Bytes{1}, /*fee=*/2, 1);
  ASSERT_TRUE(tx.ok()) << tx.status();
  EXPECT_EQ(tx->type(), TxType::kCall);
  Amount input_total = 0;
  for (const OutPoint& in : tx->inputs()) {
    input_total += State().utxos.at(in).value;
  }
  EXPECT_EQ(input_total - OutputTotal(*tx), 2u);
}

TEST_F(WalletTest, BuiltTransactionsCarryValidSignatures) {
  auto tx = alice_.BuildTransfer(State(), kBob.public_key(), 100, 1, 1);
  ASSERT_TRUE(tx.ok());
  EXPECT_TRUE(tx->VerifySignature());
  EXPECT_EQ(tx->signer(), kAlice.public_key());
  // Tampering after signing is detectable.
  MutableTransaction tampered = tx->ToMutable();
  tampered.fee += 1;
  EXPECT_FALSE(Transaction(tampered).VerifySignature());
}

// Property sweep: for any (amount, fee) the wallet can afford, the value
// balance holds and the change never exceeds the inputs.
class WalletBalanceSweep
    : public ::testing::TestWithParam<std::pair<Amount, Amount>> {};

TEST_P(WalletBalanceSweep, ValueConservation) {
  testutil::TestChain world(TestChainParams(),
                            {TxOutput{100, kAlice.public_key()},
                             TxOutput{250, kAlice.public_key()},
                             TxOutput{400, kAlice.public_key()}},
                            /*seed=*/502);
  Wallet alice(kAlice, world.chain().id());
  const auto [amount, fee] = GetParam();
  auto tx = alice.BuildTransfer(world.chain().StateAtHead(),
                                kBob.public_key(), amount, fee, 1);
  if (amount + fee > 750) {
    EXPECT_FALSE(tx.ok());
    return;
  }
  ASSERT_TRUE(tx.ok()) << tx.status();
  Amount input_total = 0;
  for (const OutPoint& in : tx->inputs()) {
    input_total += world.chain().StateAtHead().utxos.at(in).value;
  }
  EXPECT_EQ(input_total, OutputTotal(*tx) + fee);
  // And the ledger accepts it.
  ASSERT_TRUE(world.MineBlock({*tx}).ok());
  EXPECT_TRUE(world.chain().FindTx(tx->Id()).has_value());
}

INSTANTIATE_TEST_SUITE_P(
    AmountsAndFees, WalletBalanceSweep,
    ::testing::Values(std::pair<Amount, Amount>{1, 0},
                      std::pair<Amount, Amount>{99, 1},
                      std::pair<Amount, Amount>{100, 0},
                      std::pair<Amount, Amount>{101, 5},
                      std::pair<Amount, Amount>{350, 2},
                      std::pair<Amount, Amount>{744, 6},
                      std::pair<Amount, Amount>{750, 0},
                      std::pair<Amount, Amount>{750, 1},
                      std::pair<Amount, Amount>{9999, 0}));

}  // namespace
}  // namespace ac3::chain
