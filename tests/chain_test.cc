// Unit tests for the blockchain substrate: transactions, blocks, PoW,
// ledger execution, fork choice, canonical queries, the chain index,
// mempool, wallet, and the Poisson mining network.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/chain/blockchain.h"
#include "src/chain/mempool.h"
#include "src/chain/mining.h"
#include "src/chain/pow.h"
#include "src/chain/wallet.h"
#include "src/contracts/htlc_contract.h"
#include "src/sim/simulation.h"
#include "tests/test_util.h"

namespace ac3::chain {
namespace {

// Disambiguates the vector/span AssembleBlock overloads at empty-candidate
// call sites ({} binds to both).
const std::vector<Transaction> kNoCandidates;

using testutil::ApplyAndCommit;
using testutil::Fund;
using testutil::TestChain;
using testutil::ValueImage;
using testutil::ValuesOf;

ChainParams FastParams(ChainId id = 0) {
  ChainParams p = TestChainParams();
  p.id = id;
  return p;
}

crypto::KeyPair Alice() { return crypto::KeyPair::FromSeed(1001); }
crypto::KeyPair Bob() { return crypto::KeyPair::FromSeed(1002); }

// ------------------------------------------------------------ transactions

TEST(TransactionTest, EncodeDecodeRoundTrip) {
  MutableTransaction m;
  m.type = TxType::kTransfer;
  m.chain_id = 3;
  m.inputs.push_back(OutPoint{crypto::Hash256::OfString("prev"), 1});
  m.outputs.push_back(TxOutput{25, Alice().public_key()});
  m.fee = 2;
  m.nonce = 99;
  m.SignWith(Bob());
  const Transaction tx(m);

  auto decoded = Transaction::Decode(Encode(tx));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->Id(), tx.Id());
  EXPECT_EQ(decoded->outputs()[0].value, 25u);
  EXPECT_TRUE(decoded->VerifySignature());
}

TEST(TransactionTest, SignatureCoversContent) {
  MutableTransaction m;
  m.type = TxType::kTransfer;
  m.outputs.push_back(TxOutput{10, Alice().public_key()});
  m.SignWith(Bob());
  EXPECT_TRUE(Transaction(m).VerifySignature());
  m.outputs[0].value = 11;  // Tamper.
  EXPECT_FALSE(Transaction(m).VerifySignature());
}

TEST(TransactionTest, NonceChangesId) {
  MutableTransaction a, b;
  a.type = b.type = TxType::kTransfer;
  a.nonce = 1;
  b.nonce = 2;
  a.SignWith(Alice());
  b.SignWith(Alice());
  EXPECT_NE(Transaction(a).Id(), Transaction(b).Id());
}

/// One signed (coinbases: unsigned) transaction of every TxType, with
/// every field its type uses set.
std::vector<MutableTransaction> OneOfEachType() {
  std::vector<MutableTransaction> out;
  for (const TxType type : {TxType::kCoinbase, TxType::kTransfer,
                            TxType::kDeploy, TxType::kCall}) {
    MutableTransaction m;
    m.type = type;
    m.chain_id = 3;
    m.outputs.push_back(TxOutput{25, Alice().public_key()});
    m.nonce = 40 + static_cast<uint64_t>(type);
    if (type == TxType::kDeploy) {
      m.contract_kind = "HTLC";
      m.payload = Bytes{1, 2, 3};
      m.contract_value = 30;
    }
    if (type == TxType::kCall) {
      m.contract_id = crypto::Hash256::OfString("contract");
      m.function = "redeem";
      m.payload = Bytes{9};
    }
    if (type != TxType::kCoinbase) {
      m.inputs.push_back(OutPoint{crypto::Hash256::OfString("prev"), 1});
      m.fee = 2;
      m.SignWith(Bob());
    }
    out.push_back(std::move(m));
  }
  return out;
}

TEST(TransactionTest, SealedIdIsHashOfEncoding) {
  for (const MutableTransaction& m : OneOfEachType()) {
    EXPECT_EQ(Transaction(m).Id(), crypto::Hash256::Of(Encode(m)))
        << TxTypeName(m.type);
  }
}

TEST(TransactionTest, DecodedIdIsHashOfAcceptedBytes) {
  for (const MutableTransaction& m : OneOfEachType()) {
    const Bytes encoded = Encode(m);
    auto decoded = Transaction::Decode(encoded);
    ASSERT_TRUE(decoded.ok()) << TxTypeName(m.type);
    EXPECT_EQ(decoded->Id(), crypto::Hash256::Of(encoded))
        << TxTypeName(m.type);
    EXPECT_EQ(Encode(*decoded), encoded) << TxTypeName(m.type);
    EXPECT_TRUE(decoded->VerifySignature()) << TxTypeName(m.type);
    if (m.type == TxType::kCoinbase) continue;  // Unsigned.
    // A flipped signature byte still decodes, into a new rep that verifies
    // afresh and fails.
    Bytes flipped = encoded;
    flipped[flipped.size() - 16] ^= 0x01;  // Low byte of e.
    auto tampered = Transaction::Decode(flipped);
    ASSERT_TRUE(tampered.ok()) << TxTypeName(m.type);
    EXPECT_FALSE(tampered->VerifySignature()) << TxTypeName(m.type);
  }
}

TEST(TransactionTest, DecodeRejectsTrailingBytes) {
  for (const MutableTransaction& m : OneOfEachType()) {
    Bytes encoded = Encode(m);
    encoded.push_back(0);
    EXPECT_FALSE(Transaction::Decode(encoded).ok()) << TxTypeName(m.type);
  }
}

TEST(TransactionTest, EncodedSizeIsTheEncodingsSize) {
  for (const MutableTransaction& m : OneOfEachType()) {
    const Transaction tx(m);
    EXPECT_EQ(tx.EncodedSize(), Encode(tx).size()) << TxTypeName(m.type);
    auto decoded = Transaction::Decode(Encode(tx));
    ASSERT_TRUE(decoded.ok()) << TxTypeName(m.type);
    EXPECT_EQ(decoded->EncodedSize(), Encode(tx).size())
        << TxTypeName(m.type);
  }
}

TEST(TransactionTest, CopiesShareTheId) {
  Transaction tx(OneOfEachType()[1]);
  const Transaction copy = tx;
  EXPECT_EQ(copy.Id(), tx.Id());
  EXPECT_EQ(&copy.Id(), &tx.Id());  // One shared representation.
  // A move copies, so the source stays a whole transaction.
  const Transaction moved = std::move(tx);
  EXPECT_EQ(moved.Id(), copy.Id());
  EXPECT_EQ(tx.Id(), copy.Id());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(tx.VerifySignature());
}

TEST(TransactionTest, EditedCopyGetsANewIdAndFailsVerification) {
  const Transaction original(OneOfEachType()[1]);
  ASSERT_TRUE(original.VerifySignature());
  MutableTransaction edit = original.ToMutable();
  edit.fee += 1;
  const Transaction edited(std::move(edit));
  EXPECT_NE(edited.Id(), original.Id());
  EXPECT_FALSE(edited.VerifySignature());
  EXPECT_FALSE(edited.VerifySignature());  // The memoized verdict.
  // The original is untouched.
  EXPECT_EQ(original.fee(), 2u);
  EXPECT_TRUE(original.VerifySignature());
}

TEST(TransactionTest, ConcurrentFirstVerificationsAgree) {
  MutableTransaction bad = OneOfEachType()[1];
  bad.fee += 1;
  for (const MutableTransaction& m : {OneOfEachType()[1], bad}) {
    const Transaction tx(m);  // Fresh: no verdict stored yet.
    std::array<bool, 4> verdicts{};
    std::vector<std::thread> threads;
    for (bool& verdict : verdicts) {
      threads.emplace_back(
          [&tx, &verdict] { verdict = tx.VerifySignature(); });
    }
    for (std::thread& thread : threads) thread.join();
    const bool expected = crypto::Verify(m.signer, m.SigningPayload(),
                                         m.signature);
    for (bool verdict : verdicts) EXPECT_EQ(verdict, expected);
    EXPECT_EQ(tx.VerifySignature(), expected);
  }
}

// ---------------------------------------------------------------- receipts

Receipt SampleReceipt() {
  Receipt receipt;
  receipt.tx_id = crypto::Hash256::OfString("tx");
  receipt.success = false;
  receipt.contract_id = crypto::Hash256::OfString("contract");
  receipt.state_digest = Bytes{4, 5, 6};
  receipt.note = "guard failed";
  return receipt;
}

TEST(ReceiptTest, EncodeDecodeRoundTrip) {
  const Bytes encoded = Encode(SampleReceipt());
  auto decoded = Decode<Receipt>(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(Encode(*decoded), encoded);
  EXPECT_FALSE(decoded->success);
}

TEST(ReceiptTest, DecodeRejectsTrailingBytes) {
  Bytes encoded = Encode(SampleReceipt());
  encoded.push_back(0);
  EXPECT_FALSE(Decode<Receipt>(encoded).ok());
}

TEST(ReceiptTest, EqualityIsEqualEncoding) {
  const Receipt receipt = SampleReceipt();
  const Receipt copy = receipt;
  EXPECT_TRUE(copy == receipt);
  EXPECT_EQ(Encode(copy), Encode(receipt));
  // Changing any one of the five fields breaks both.
  const std::vector<void (*)(Receipt*)> edits = {
      [](Receipt* r) { r->tx_id = crypto::Hash256::OfString("other tx"); },
      [](Receipt* r) { r->success = !r->success; },
      [](Receipt* r) { r->contract_id = crypto::Hash256(); },
      [](Receipt* r) { r->state_digest.push_back(7); },
      [](Receipt* r) { r->note = "redeemed"; },
  };
  for (size_t i = 0; i < edits.size(); ++i) {
    Receipt edited = receipt;
    edits[i](&edited);
    EXPECT_FALSE(edited == receipt) << "field " << i;
    EXPECT_NE(Encode(edited), Encode(receipt)) << "field " << i;
  }
}

TEST(ReceiptTest, DecodeRejectsNonBooleanSuccess) {
  Bytes encoded = Encode(SampleReceipt());
  const size_t success_at = crypto::Hash256::kSize;  // After tx_id.
  ASSERT_EQ(encoded[success_at], 0);
  encoded[success_at] = 2;
  EXPECT_FALSE(Decode<Receipt>(encoded).ok());
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

  auto decoded = Decode<BlockHeader>(Encode(h));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, h);
  EXPECT_EQ(decoded->Hash(), h.Hash());
}

TEST(PowTest, DifficultyZeroAlwaysPasses) {
  EXPECT_TRUE(HashMeetsDifficulty(crypto::Hash256::OfString("x"), 0));
}

// A digest whose first `zeros` bits are clear and whose next bit is set.
crypto::Hash256 HashWithLeadingZeros(uint32_t zeros) {
  std::array<uint8_t, crypto::Hash256::kSize> bytes{};
  bytes.fill(0xff);
  for (uint32_t bit = 0; bit < zeros; ++bit) {
    bytes[bit / 8] &= static_cast<uint8_t>(~(0x80u >> (bit % 8)));
  }
  return crypto::Hash256(bytes);
}

// Leading zeros count over the whole 32-byte digest, so every uint32_t
// difficulty is defined: a digest with z leading zeros meets exactly the
// difficulties 0..z, and nothing above 256 is ever met.
TEST(PowTest, HashMeetsDifficultyCountsLeadingZerosOverTheWholeDigest) {
  for (uint32_t zeros : {0u, 1u, 31u, 32u, 33u, 63u, 64u, 65u, 255u}) {
    const crypto::Hash256 hash = HashWithLeadingZeros(zeros);
    EXPECT_TRUE(HashMeetsDifficulty(hash, zeros)) << "zeros " << zeros;
    EXPECT_FALSE(HashMeetsDifficulty(hash, zeros + 1)) << "zeros " << zeros;
    EXPECT_FALSE(HashMeetsDifficulty(hash, UINT32_MAX)) << "zeros " << zeros;
  }
  const crypto::Hash256 zero;
  for (uint32_t bits : {0u, 1u, 31u, 32u, 33u, 63u, 64u, 65u, 255u, 256u}) {
    EXPECT_TRUE(HashMeetsDifficulty(zero, bits)) << "bits " << bits;
  }
  EXPECT_FALSE(HashMeetsDifficulty(zero, 257));
  EXPECT_FALSE(HashMeetsDifficulty(zero, UINT32_MAX));
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
  MutableTransaction theft;
  theft.type = TxType::kTransfer;
  theft.chain_id = 0;
  theft.inputs.push_back(OutPoint{tc.chain().genesis_tx().Id(), 0});
  theft.outputs.push_back(TxOutput{499, Bob().public_key()});
  theft.fee = 1;
  theft.SignWith(Bob());

  LedgerState state = tc.chain().StateAtHead();
  BlockEnv env{0, 1, 100};
  auto receipt = ApplyAndCommit(&state, Transaction(theft), env);
  EXPECT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.status().code(), StatusCode::kVerificationFailed);
}

TEST(LedgerTest, ForgedSignatureUnderUnitKeyRejected) {
  // Genesis pays y = 1, a key anyone could sign for if Verify accepted it.
  const crypto::PublicKey unit(1);
  TestChain tc(FastParams(), Fund({unit}, 500));
  MutableTransaction theft;
  theft.type = TxType::kTransfer;
  theft.chain_id = 0;
  theft.inputs.push_back(OutPoint{tc.chain().genesis_tx().Id(), 0});
  theft.outputs.push_back(TxOutput{499, Bob().public_key()});
  theft.fee = 1;
  theft.signer = unit;
  theft.signature = testutil::ForgeUnderUnitKey(unit, theft.SigningPayload());

  LedgerState state = tc.chain().StateAtHead();
  auto receipt =
      ApplyAndCommit(&state, Transaction(theft), BlockEnv{0, 1, 100});
  EXPECT_EQ(receipt.status().code(), StatusCode::kVerificationFailed);
  EXPECT_EQ(state.BalanceOf(Bob().public_key()), 0u);
}

TEST(LedgerTest, DuplicateInputOutpointRejected) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  // Listing the same 500-value outpoint twice must not let Alice claim
  // 1000 of outputs (value inflation).
  MutableTransaction tx;
  tx.type = TxType::kTransfer;
  tx.chain_id = 0;
  const OutPoint funding{tc.chain().genesis_tx().Id(), 0};
  tx.inputs = {funding, funding};
  tx.outputs.push_back(TxOutput{999, Bob().public_key()});
  tx.fee = 1;
  tx.SignWith(Alice());

  LedgerState state = tc.chain().StateAtHead();
  BlockEnv env{0, 1, 100};
  auto receipt = ApplyAndCommit(&state, Transaction(tx), env);
  EXPECT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(state.TotalValue(), 500u);
}

TEST(LedgerTest, ValueImbalanceRejected) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  MutableTransaction tx;
  tx.type = TxType::kTransfer;
  tx.chain_id = 0;
  tx.inputs.push_back(OutPoint{tc.chain().genesis_tx().Id(), 0});
  tx.outputs.push_back(TxOutput{600, Bob().public_key()});  // Inflates value.
  tx.fee = 0;
  tx.SignWith(Alice());

  LedgerState state = tc.chain().StateAtHead();
  BlockEnv env{0, 1, 100};
  EXPECT_FALSE(ApplyAndCommit(&state, Transaction(tx), env).ok());
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
  EXPECT_EQ(merge->inputs().size(), 3u);
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

constexpr Amount kMaxAmount = std::numeric_limits<Amount>::max();

TEST(LedgerTest, WrappingTransferRejected) {
  // Outputs {2^64 - 50, 150} sum to 100 modulo 2^64: a wrapping check
  // would accept them against a 100-value input (Bitcoin's CVE-2010-5139).
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 100));
  MutableTransaction tx;
  tx.type = TxType::kTransfer;
  tx.chain_id = 0;
  tx.inputs.push_back(OutPoint{tc.chain().genesis_tx().Id(), 0});
  tx.outputs = {TxOutput{kMaxAmount - 49, Bob().public_key()},
                TxOutput{150, Alice().public_key()}};
  tx.SignWith(Alice());
  const Transaction wrapping(tx);

  LedgerState state = tc.chain().StateAtHead();
  auto receipt = ApplyAndCommit(&state, wrapping, BlockEnv{0, 1, 100});
  EXPECT_EQ(receipt.status().code(), StatusCode::kInvalidArgument);
  // Nor does a miner include it.
  ASSERT_TRUE(tc.MineBlock({wrapping}).ok());
  EXPECT_FALSE(tc.chain().FindTx(wrapping.Id()).has_value());
  EXPECT_EQ(tc.chain().StateAtHead().BalanceOf(Bob().public_key()), 0u);
}

TEST(LedgerTest, WrappingDeployValueRejected) {
  // 150 of change plus a 2^64 - 50 contract value wraps to the 100 input.
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 100));
  MutableTransaction tx;
  tx.type = TxType::kDeploy;
  tx.chain_id = 0;
  tx.inputs.push_back(OutPoint{tc.chain().genesis_tx().Id(), 0});
  tx.outputs.push_back(TxOutput{150, Alice().public_key()});
  tx.contract_kind = contracts::kHtlcKind;
  tx.payload = Encode(contracts::HtlcInit{
      Bob().public_key(), crypto::Hash256::OfString("secret"), 60'000});
  tx.contract_value = kMaxAmount - 49;
  tx.SignWith(Alice());

  LedgerState state = tc.chain().StateAtHead();
  auto receipt = ApplyAndCommit(&state, Transaction(tx), BlockEnv{0, 1, 100});
  EXPECT_EQ(receipt.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(state.LockedValue(), 0u);
  EXPECT_EQ(state.LiquidValue(), 100u);
}

/// What a rejected transaction must leave as it was, copied out of the
/// trees so the image shares no node with the state it describes.
struct StateImage {
  std::vector<std::pair<OutPoint, TxOutput>> utxos;
  std::vector<std::pair<crypto::Hash256, contracts::ContractPtr>> contracts;
  Amount liquid_total = 0;

  bool operator==(const StateImage&) const = default;
};

StateImage ImageOf(const LedgerState& state) {
  StateImage image;
  for (const auto& [outpoint, output] : state.utxos) {
    image.utxos.emplace_back(outpoint, output);
  }
  for (const auto& [id, contract] : state.contracts) {
    image.contracts.emplace_back(id, contract);
  }
  image.liquid_total = state.liquid_total;
  return image;
}

TEST(LedgerTest, RejectedTransactionsLeaveStateUnchanged) {
  // Alice holds a 500 and a 300 output, Bob a 200; Alice then locks 100 of
  // her 300 in an HTLC. Each case below fails one check of
  // ApplyTransaction. The value checks fail after every input was read,
  // the failed deploy after the value check passed: all before any write.
  TestChain tc(FastParams(), {TxOutput{500, Alice().public_key()},
                              TxOutput{300, Alice().public_key()},
                              TxOutput{200, Bob().public_key()}});
  const crypto::Hash256 genesis = tc.chain().genesis_tx().Id();
  const OutPoint alice500{genesis, 0};
  const OutPoint alice300{genesis, 1};
  const OutPoint bob200{genesis, 2};
  const BlockEnv env{0, 1, 100};
  const Bytes htlc_payload = Encode(contracts::HtlcInit{
      Bob().public_key(), crypto::Hash256::OfString("secret"), 60'000});

  auto make = [](TxType type, std::vector<OutPoint> inputs, Amount out,
                 Amount fee) {
    MutableTransaction tx;
    tx.type = type;
    tx.chain_id = 0;
    tx.inputs = std::move(inputs);
    tx.outputs.push_back(TxOutput{out, Alice().public_key()});
    tx.fee = fee;
    return tx;
  };
  auto signed_by_alice = [](MutableTransaction tx) {
    tx.SignWith(Alice());
    return Transaction(tx);
  };

  LedgerState state = tc.chain().StateAtHead();
  MutableTransaction htlc = make(TxType::kDeploy, {alice300}, 196, 4);
  htlc.contract_kind = contracts::kHtlcKind;
  htlc.payload = htlc_payload;
  htlc.contract_value = 100;
  const Transaction deploy = signed_by_alice(htlc);
  ASSERT_TRUE(ApplyAndCommit(&state, deploy, env).ok());

  struct Case {
    const char* name;
    Transaction tx;
    StatusCode code;
  };
  std::vector<Case> cases;

  MutableTransaction other_chain = make(TxType::kTransfer, {alice500}, 499, 1);
  other_chain.chain_id = 1;
  cases.push_back({"wrong chain", signed_by_alice(other_chain),
                   StatusCode::kInvalidArgument});

  MutableTransaction tampered = make(TxType::kTransfer, {alice500}, 499, 1);
  tampered.SignWith(Alice());
  tampered.outputs[0].value = 498;  // Still balanced, no longer signed.
  tampered.fee = 2;
  cases.push_back({"bad signature", Transaction(tampered),
                   StatusCode::kVerificationFailed});

  cases.push_back(
      {"missing input",
       signed_by_alice(make(TxType::kTransfer, {OutPoint{genesis, 7}}, 9, 1)),
       StatusCode::kInvalidArgument});
  cases.push_back({"duplicate input",
                   signed_by_alice(make(TxType::kTransfer,
                                        {alice500, alice500}, 999, 1)),
                   StatusCode::kInvalidArgument});
  cases.push_back(
      {"foreign input",
       signed_by_alice(make(TxType::kTransfer, {alice500, bob200}, 699, 1)),
       StatusCode::kVerificationFailed});
  cases.push_back(
      {"transfer imbalance",
       signed_by_alice(make(TxType::kTransfer, {alice500}, 600, 0)),
       StatusCode::kInvalidArgument});

  MutableTransaction deploy_imbalance =
      make(TxType::kDeploy, {alice500}, 400, 4);
  deploy_imbalance.contract_kind = contracts::kHtlcKind;
  deploy_imbalance.payload = htlc_payload;
  deploy_imbalance.contract_value = 100;  // 400 + 4 + 100 != 500.
  cases.push_back({"deploy imbalance", signed_by_alice(deploy_imbalance),
                   StatusCode::kInvalidArgument});

  MutableTransaction call_imbalance = make(TxType::kCall, {alice500}, 498, 1);
  call_imbalance.contract_id = deploy.Id();
  call_imbalance.function = "refund";
  cases.push_back({"call imbalance", signed_by_alice(call_imbalance),
                   StatusCode::kInvalidArgument});

  MutableTransaction unknown = make(TxType::kCall, {alice500}, 499, 1);
  unknown.contract_id = crypto::Hash256::OfString("nowhere");
  unknown.function = "refund";
  cases.push_back({"unknown contract", signed_by_alice(unknown),
                   StatusCode::kNotFound});

  MutableTransaction bogus = make(TxType::kDeploy, {alice500}, 396, 4);
  bogus.contract_kind = "Bogus";  // Balanced, but no such contract class.
  bogus.contract_value = 100;
  cases.push_back({"failed deploy", signed_by_alice(bogus),
                   StatusCode::kNotFound});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const StateImage before = ImageOf(state);
    auto receipt = ApplyAndCommit(&state, c.tx, env);
    ASSERT_FALSE(receipt.ok());
    EXPECT_EQ(receipt.status().code(), c.code) << receipt.status();
    EXPECT_TRUE(ImageOf(state) == before);
  }

  // The same state still accepts a valid spend of the contested output.
  const StateImage before = ImageOf(state);
  ASSERT_TRUE(ApplyAndCommit(&state,
                             signed_by_alice(make(TxType::kTransfer,
                                                  {alice500}, 499, 1)),
                             env)
                  .ok());
  EXPECT_FALSE(ImageOf(state) == before);
  EXPECT_EQ(state.TotalValue(), 1000u - 4u - 1u);
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

TEST(BlockchainTest, RejectsWrappingCoinbase) {
  // Coinbase outputs {2^64 - 10, reward + 10} sum to the reward modulo
  // 2^64.
  TestChain tc(FastParams(), {});
  Rng rng(3);
  auto block = tc.chain().AssembleBlock(
      tc.chain().head()->hash, std::span<const Transaction* const>(),
      Alice().public_key(), 50, &rng, /*mine=*/false);
  ASSERT_TRUE(block.ok());
  MutableTransaction coinbase;
  coinbase.type = TxType::kCoinbase;
  coinbase.chain_id = 0;
  coinbase.outputs = {
      TxOutput{kMaxAmount - 9, Alice().public_key()},
      TxOutput{tc.chain().params().block_reward + 10, Alice().public_key()}};
  Block bad = *block;
  bad.txs[0] = Transaction(coinbase);
  bad.receipts[0].tx_id = bad.txs[0].Id();
  bad.header.tx_root = bad.ComputeTxRoot();
  bad.header.receipt_root = bad.ComputeReceiptRoot();
  MineHeader(&bad.header, &rng);
  EXPECT_EQ(tc.chain().SubmitBlock(bad, 50).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tc.chain().head()->height(), 0u);
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

TEST(BlockchainTest, ArrivalOrderListsEveryStoredEntryOnce) {
  TestChain tc(FastParams(), {});
  Blockchain& bc = tc.chain();
  Rng rng(23);
  ASSERT_EQ(bc.arrival_order().size(), 1u);
  EXPECT_EQ(bc.arrival_order().front(), bc.genesis());

  // Fork siblings are appended in submission order, not hash order.
  const crypto::Hash256 root = bc.genesis()->hash;
  auto a1 =
      bc.AssembleBlock(root, kNoCandidates, Alice().public_key(), 100, &rng);
  auto b1 =
      bc.AssembleBlock(root, kNoCandidates, Bob().public_key(), 100, &rng);
  ASSERT_TRUE(a1.ok() && b1.ok());
  ASSERT_TRUE(bc.SubmitBlock(*b1, 100).ok());
  ASSERT_TRUE(bc.SubmitBlock(*a1, 101).ok());

  // A re-submitted stored block and a rejected block append nothing.
  EXPECT_EQ(bc.SubmitBlock(*a1, 102).code(), StatusCode::kAlreadyExists);
  Block bad = *a1;
  do {
    ++bad.header.nonce;
  } while (CheckProofOfWork(bad.header));
  EXPECT_EQ(bc.SubmitBlock(bad, 102).code(), StatusCode::kVerificationFailed);
  ASSERT_EQ(bc.arrival_order().size(), 3u);
  EXPECT_EQ(bc.arrival_order()[1]->hash, b1->header.Hash());
  EXPECT_EQ(bc.arrival_order()[2]->hash, a1->header.Hash());

  // Siblings on two forks append in the order they arrive, whichever
  // parent they extend; a stored duplicate and a rejected block arriving
  // between them append nothing.
  auto c1 = bc.AssembleBlock(a1->header.Hash(), kNoCandidates,
                             Alice().public_key(), 200, &rng);
  auto c2 = bc.AssembleBlock(b1->header.Hash(), kNoCandidates,
                             Alice().public_key(), 200, &rng);
  auto c3 = bc.AssembleBlock(a1->header.Hash(), kNoCandidates,
                             Bob().public_key(), 200, &rng);
  ASSERT_TRUE(c1.ok() && c2.ok() && c3.ok());
  const std::vector<std::pair<Block, StatusCode>> arrivals = {
      {*c2, StatusCode::kOk},
      {*b1, StatusCode::kAlreadyExists},
      {bad, StatusCode::kVerificationFailed},
      {*c3, StatusCode::kOk},
      {*c1, StatusCode::kOk},
  };
  for (const auto& [block, code] : arrivals) {
    EXPECT_EQ(bc.SubmitBlock(block, 200).code(), code);
  }

  const std::vector<const BlockEntry*>& order = bc.arrival_order();
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[3]->hash, c2->header.Hash());
  EXPECT_EQ(order[4]->hash, c3->header.Hash());
  EXPECT_EQ(order[5]->hash, c1->header.Hash());

  // Every stored entry exactly once, as the pointer the store holds.
  EXPECT_EQ(order.size(), bc.block_count());
  EXPECT_EQ(std::unordered_set<const BlockEntry*>(order.begin(), order.end())
                .size(),
            order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(bc.Get(order[i]->hash), order[i]);
    EXPECT_EQ(order[i]->arrival_seq, i);
  }
}

TEST(BlockchainTest, RejectedBlocksStoreNothingAndMoveNoHead) {
  // Each way SubmitBlock turns a block away returns its own code and
  // leaves the chain as it was: no entry, no arrival slot, no head move,
  // no listener call, and the head's state unchanged. The last two cases
  // fail after the body was staged over the head's state, which the next
  // valid child then takes over.
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 100));
  ASSERT_TRUE(tc.MineEmpty(2).ok());
  Blockchain& bc = tc.chain();
  Rng rng(29);
  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(bc.StateAtHead(), Bob().public_key(), 10, 1,
                                 1);
  ASSERT_TRUE(tx.ok());
  auto next = bc.AssembleBlock(bc.head()->hash, {*tx}, Alice().public_key(),
                               300, &rng);
  ASSERT_TRUE(next.ok());

  Block orphan = *next;
  orphan.header.prev_hash = crypto::Hash256::OfString("nowhere");
  Block bad_pow = *next;
  do {
    ++bad_pow.header.nonce;
  } while (CheckProofOfWork(bad_pow.header));
  // Same header as `next`, but the receipts no longer hash to its root.
  Block bad_receipts = *next;
  bad_receipts.receipts[1].note = "tampered";
  // Receipts that differ from re-execution, under a root and a proof of
  // work that match them.
  Block forged_receipts = *next;
  forged_receipts.receipts[1].note = "forged";
  forged_receipts.header.receipt_root = forged_receipts.ComputeReceiptRoot();
  MineHeader(&forged_receipts.header, &rng);
  // A second transfer of the output `tx` spends, built by a wallet that
  // has not reserved it: the body fails at it with `tx` staged.
  auto respend = Wallet(Alice(), 0).BuildTransfer(
      bc.StateAtHead(), Bob().public_key(), 20, 1, 2);
  ASSERT_TRUE(respend.ok());
  ASSERT_EQ(respend->inputs(), tx->inputs());
  Block double_spend = *next;
  double_spend.txs.push_back(*respend);
  double_spend.receipts.push_back(next->receipts[1]);
  double_spend.header.tx_root = double_spend.ComputeTxRoot();
  double_spend.header.receipt_root = double_spend.ComputeReceiptRoot();
  MineHeader(&double_spend.header, &rng);

  int fired = 0;
  bc.SubscribeHead([&](const BlockEntry&) { ++fired; });
  const BlockEntry* head = bc.head();
  const StateImage head_state = ImageOf(bc.StateAtHead());
  const ValueImage head_values = ValuesOf(bc.StateAtHead());
  ValueImage next_values;
  {
    LedgerState scratch = bc.StateAtHead();
    ASSERT_TRUE(ApplyBlockBody(&scratch, *next, bc.params()).ok());
    next_values = ValuesOf(scratch);
  }
  const size_t stored = bc.block_count();

  struct Case {
    const char* name;
    Block block;
    StatusCode code;
  };
  const std::vector<Case> cases = {
      {"unknown parent", orphan, StatusCode::kNotFound},
      {"stored duplicate", head->block, StatusCode::kAlreadyExists},
      {"bad proof of work", bad_pow, StatusCode::kVerificationFailed},
      {"receipt root mismatch", bad_receipts,
       StatusCode::kVerificationFailed},
      {"receipts differ from execution", forged_receipts,
       StatusCode::kVerificationFailed},
      {"double spend in the body", double_spend, StatusCode::kInvalidArgument},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(bc.SubmitBlock(c.block, 300).code(), c.code);
    EXPECT_EQ(bc.block_count(), stored);
    EXPECT_EQ(bc.arrival_order().size(), stored);
    EXPECT_EQ(bc.head(), head);
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(ImageOf(bc.StateAtHead()) == head_state);
  }

  // A rejection leaves no mark on its header hash: the untampered block
  // sharing `bad_receipts`'s header is accepted and moves the head once,
  // and its state is the unchanged head state with its body applied.
  ASSERT_TRUE(bc.SubmitBlock(*next, 300).ok());
  EXPECT_EQ(bc.head()->hash, next->header.Hash());
  EXPECT_EQ(bc.block_count(), stored + 1);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(ValuesOf(bc.StateAtHead()) == next_values);
  EXPECT_TRUE(ValuesOf(bc.StateAt(*head)) == head_values);
}

TEST(BlockchainTest, ChildBeforeItsParentIsAcceptedOnceTheParentLands) {
  // The chain keeps no orphan pool: a child arriving before its parent is
  // turned away as unknown and stores nothing, and the same block
  // submitted again after its parent is accepted on top of it.
  const auto allocations = Fund({Alice().public_key()}, 100);
  TestChain source(FastParams(), allocations);
  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(source.chain().StateAtHead(),
                                 Bob().public_key(), 10, 1, 1);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(source.MineBlock({*tx}).ok());
  ASSERT_TRUE(source.MineEmpty(1).ok());
  const BlockEntry* child = source.chain().head();
  const BlockEntry* parent = child->parent;

  Blockchain replica(FastParams(), allocations);
  EXPECT_EQ(replica.SubmitBlock(child->block, 10).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(replica.block_count(), 1u);
  EXPECT_EQ(replica.head(), replica.genesis());

  ASSERT_TRUE(replica.SubmitBlock(parent->block, 11).ok());
  ASSERT_TRUE(replica.SubmitBlock(child->block, 12).ok());
  EXPECT_EQ(replica.head()->hash, child->hash);
  EXPECT_EQ(replica.head()->parent->hash, parent->hash);
  EXPECT_TRUE(ValuesOf(replica.StateAtHead()) ==
              ValuesOf(source.chain().StateAt(*child)));
  EXPECT_EQ(replica.StateAtHead().BalanceOf(Bob().public_key()), 10u);
  ASSERT_EQ(replica.arrival_order().size(), 3u);
  EXPECT_EQ(replica.arrival_order()[1]->hash, parent->hash);
  EXPECT_EQ(replica.arrival_order()[2]->hash, child->hash);
}

TEST(BlockchainTest, ReplayInArrivalOrderReproducesTheForkTree) {
  // A fresh chain fed a fork tree one SubmitBlock at a time, in the
  // source's arrival order, stores the same entries in the same order,
  // breaks equal-work ties the same way (first seen wins) and moves its
  // head on the same arrivals.
  TestChain source(FastParams(), {});
  std::vector<crypto::Hash256> source_moves;
  source.chain().SubscribeHead([&](const BlockEntry& old_head) {
    source_moves.push_back(old_head.hash);
  });
  const crypto::Hash256 root = source.chain().genesis()->hash;
  auto mine_on = [&](const crypto::Hash256& parent) {
    EXPECT_TRUE(source.MineBlockOn(parent, {}).ok());
    return source.chain().arrival_order().back()->hash;
  };
  const crypto::Hash256 a1 = mine_on(root);
  const crypto::Hash256 b1 = mine_on(root);  // Tie: a1 stays head.
  const crypto::Hash256 b2 = mine_on(b1);    // Heavier: reorg to b.
  const crypto::Hash256 a2 = mine_on(a1);    // Tie: b2 stays head.
  const crypto::Hash256 a3 = mine_on(a2);    // Heavier: reorg back to a.
  mine_on(b1);                               // Lighter sibling of b2.
  ASSERT_EQ(source.chain().head()->hash, a3);
  ASSERT_EQ(source_moves,
            (std::vector<crypto::Hash256>{root, a1, b2}));

  Blockchain replica(FastParams(), {});
  std::vector<crypto::Hash256> replica_moves;
  replica.SubscribeHead([&](const BlockEntry& old_head) {
    replica_moves.push_back(old_head.hash);
  });
  for (const BlockEntry* entry : source.chain().arrival_order()) {
    if (entry->height() == 0) continue;
    const Status status = replica.SubmitBlock(entry->block, entry->arrival_time);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  EXPECT_EQ(replica_moves, source_moves);
  EXPECT_EQ(replica.head()->hash, source.chain().head()->hash);
  ASSERT_EQ(replica.block_count(), source.chain().block_count());
  for (size_t i = 0; i < replica.arrival_order().size(); ++i) {
    const BlockEntry* copy = replica.arrival_order()[i];
    const BlockEntry* original = source.chain().arrival_order()[i];
    EXPECT_EQ(copy->hash, original->hash) << i;
    EXPECT_EQ(replica.IsCanonical(copy->hash),
              source.chain().IsCanonical(original->hash))
        << i;
  }
}

TEST(BlockchainTest, StatesOnDemandMatchRecordsAndGenesisReplays) {
  // Seeded fork trees of 240 blocks carrying transfers, HTLC deploys and
  // redeems. Most blocks extend the head; one in four forks 1-40 blocks
  // below a random tip, so its parent's state has often been handed to a
  // child and is rebuilt from a checkpoint, some of them an interval or
  // more up. Every entry's StateAt must equal both the state recorded
  // right after the entry was accepted and a replay of its branch from
  // genesis, by value: every output, every contract's fields and the
  // liquid and locked totals.
  ChainParams params = FastParams();
  params.difficulty_bits = 4;
  std::vector<crypto::KeyPair> keys;
  std::vector<crypto::PublicKey> owners;
  for (int i = 0; i < 4; ++i) {
    keys.push_back(crypto::KeyPair::FromSeed(2100 + i));
    owners.push_back(keys.back().public_key());
  }
  const crypto::PublicKey miner = crypto::KeyPair::FromSeed(2199).public_key();
  const Bytes secret{3, 1, 4};
  const uint64_t interval = Blockchain::kStateCheckpointInterval;

  for (const uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Blockchain bc(params, Fund(owners, 10'000));
    Rng rng(seed);
    std::unordered_map<const BlockEntry*, ValueImage> recorded;
    recorded.emplace(bc.genesis(), ValuesOf(bc.StateAt(*bc.genesis())));
    std::unordered_set<const BlockEntry*> tips = {bc.genesis()};
    TimePoint now = 0;
    uint64_t nonce = 1;
    size_t deep_forks = 0;
    for (int i = 0; i < 240; ++i) {
      const BlockEntry* parent = bc.head();
      if (rng.NextU64() % 4 == 0) {
        std::vector<const BlockEntry*> tip_list;
        for (const BlockEntry* entry : bc.arrival_order()) {
          if (tips.contains(entry)) tip_list.push_back(entry);
        }
        const BlockEntry* tip = tip_list[rng.NextU64() % tip_list.size()];
        const uint64_t depth = 1 + rng.NextU64() % 40;
        parent = bc.GetAncestor(
            tip, tip->height() > depth ? tip->height() - depth : 0);
        if (depth >= interval) ++deep_forks;
      }

      // Built on the parent's state, which is dropped before submission
      // so that a tip's state is handed over unshared.
      std::vector<Transaction> txs;
      {
        const LedgerState base = bc.StateAt(*parent);
        std::vector<Wallet> wallets;
        for (const crypto::KeyPair& key : keys) wallets.emplace_back(key, 0);
        for (int k = 0; k < 3; ++k) {
          const size_t from = rng.NextU64() % keys.size();
          const uint64_t kind = rng.NextU64() % 6;
          Result<Transaction> tx = Status::NotFound("no transaction");
          if (kind == 0) {
            tx = wallets[from].BuildDeploy(
                base, contracts::kHtlcKind,
                Encode(contracts::HtlcInit{
                    owners[0], crypto::Hash256::Of(secret), Minutes(60)}),
                50, params.deploy_fee, nonce++);
          } else if (kind == 1 && base.contracts.size() > 0) {
            // Redeems the first HTLC, or reverts once it is redeemed.
            tx = wallets[0].BuildCall(base, (*base.contracts.begin()).first,
                                      contracts::kRedeemFunction, secret, 1,
                                      nonce++);
          } else {
            tx = wallets[from].BuildTransfer(
                base, owners[rng.NextU64() % owners.size()],
                1 + rng.NextU64() % 50, 1, nonce++);
          }
          if (tx.ok()) txs.push_back(*tx);
        }
      }
      now += 100;
      auto block = bc.AssembleBlock(parent->hash, txs, miner, now, &rng);
      ASSERT_TRUE(block.ok()) << block.status().ToString();
      const crypto::Hash256 hash = block->header.Hash();
      ASSERT_TRUE(bc.SubmitBlock(std::move(*block), now).ok());
      const BlockEntry* entry = bc.Get(hash);
      tips.erase(parent);
      tips.insert(entry);
      recorded.emplace(entry, ValuesOf(bc.StateAt(*entry)));
    }
    EXPECT_GT(deep_forks, 0u);
    EXPECT_GT(bc.StateAtHead().LockedValue(), 0u);
    EXPECT_GT(bc.height(), 2 * interval);
    EXPECT_GT(tips.size(), 10u);

    // Each branch replayed from genesis, parents before children.
    std::unordered_map<const BlockEntry*, LedgerState> replayed;
    replayed.emplace(bc.genesis(), GenesisState(bc.genesis_tx()));
    for (const BlockEntry* entry : bc.arrival_order()) {
      if (entry != bc.genesis()) {
        LedgerState state = replayed.at(entry->parent);
        ASSERT_TRUE(ApplyBlockBody(&state, entry->block, params).ok());
        replayed.emplace(entry, std::move(state));
      }
      const LedgerState state = bc.StateAt(*entry);
      const ValueImage image = ValuesOf(state);
      EXPECT_TRUE(image == recorded.at(entry)) << "height " << entry->height();
      EXPECT_TRUE(image == ValuesOf(replayed.at(entry)))
          << "height " << entry->height();
      EXPECT_EQ(state.TotalValue(), replayed.at(entry).TotalValue());
      EXPECT_EQ(state.LiquidValue(), testutil::LiquidValueScan(state));
    }
  }
}

TEST(BlockchainTest, HeldHeadStateIsUnchangedByLaterBlocks) {
  // A copy of the head's state shares its trees with the state the next
  // block takes over: the commit must path-copy what the copy holds, not
  // write it in place.
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 1000));
  Blockchain& bc = tc.chain();
  ASSERT_TRUE(tc.MineEmpty(1).ok());  // Height 1 is no checkpoint.
  const LedgerState held = bc.StateAtHead();
  const StateImage image = ImageOf(held);
  Wallet alice(Alice(), 0);
  for (uint64_t nonce = 1; nonce <= 5; ++nonce) {
    auto tx = alice.BuildTransfer(bc.StateAtHead(), Bob().public_key(), 10, 1,
                                  nonce);
    ASSERT_TRUE(tx.ok());
    ASSERT_TRUE(tc.MineBlock({*tx}).ok());
  }
  EXPECT_TRUE(ImageOf(held) == image);
  EXPECT_EQ(held.LiquidValue(), testutil::LiquidValueScan(held));
  EXPECT_EQ(held.BalanceOf(Bob().public_key()), 0u);
  EXPECT_EQ(bc.StateAtHead().BalanceOf(Bob().public_key()), 50u);
}

TEST(BlockchainTest, FindTxFollowsAReorgToTheOtherInclusion) {
  // One watched transfer mined into two sibling blocks at different
  // positions: FindTx answers with whichever sibling the head extends.
  TestChain tc(FastParams(),
               Fund({Alice().public_key(), Bob().public_key()}, 100));
  Blockchain& bc = tc.chain();
  Rng rng(29);
  Wallet alice(Alice(), 0);
  Wallet bob(Bob(), 0);
  auto tx = alice.BuildTransfer(bc.StateAtHead(), Bob().public_key(), 10, 1, 1);
  auto filler =
      bob.BuildTransfer(bc.StateAtHead(), Alice().public_key(), 5, 1, 1);
  ASSERT_TRUE(tx.ok() && filler.ok());
  bc.Watch(tx->Id());
  bc.Watch(filler->Id());

  const crypto::PublicKey miner = crypto::KeyPair::FromSeed(9999).public_key();
  const BlockEntry* root = bc.head();
  auto a1 = bc.AssembleBlock(root->hash, {*tx}, miner, 100, &rng);
  auto b1 = bc.AssembleBlock(root->hash, {*filler, *tx}, miner, 100, &rng);
  ASSERT_TRUE(a1.ok() && b1.ok());
  ASSERT_TRUE(bc.SubmitBlock(*a1, 100).ok());
  ASSERT_TRUE(bc.SubmitBlock(*b1, 101).ok());
  const BlockEntry* a1_entry = bc.Get(a1->header.Hash());
  const BlockEntry* b1_entry = bc.Get(b1->header.Hash());
  ASSERT_EQ(bc.head(), a1_entry);  // First seen wins the tie.

  auto loc = bc.FindTx(tx->Id());
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->entry, a1_entry);
  EXPECT_EQ(a1_entry->block.txs[loc->index].Id(), tx->Id());
  EXPECT_FALSE(bc.FindTx(filler->Id()).has_value());
  EXPECT_TRUE(bc.TxOnBranch(*a1_entry, tx->Id()));
  EXPECT_TRUE(bc.TxOnBranch(*b1_entry, tx->Id()));
  EXPECT_FALSE(bc.TxOnBranch(*a1_entry, filler->Id()));
  EXPECT_FALSE(bc.TxOnBranch(*root, tx->Id()));

  // Extending b1 reorgs the head onto the other inclusion.
  auto b2 = bc.AssembleBlock(b1_entry->hash, kNoCandidates, miner, 200, &rng);
  ASSERT_TRUE(b2.ok());
  ASSERT_TRUE(bc.SubmitBlock(*b2, 200).ok());
  ASSERT_EQ(bc.head()->parent, b1_entry);
  loc = bc.FindTx(tx->Id());
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->entry, b1_entry);
  EXPECT_EQ(b1_entry->block.txs[loc->index].Id(), tx->Id());
  ASSERT_TRUE(bc.FindTx(filler->Id()).has_value());
  EXPECT_EQ(bc.FindTx(filler->Id())->entry, b1_entry);
  EXPECT_EQ(bc.ConfirmationsOf(b1_entry->hash), 1u);
  EXPECT_FALSE(bc.ConfirmationsOf(a1_entry->hash).has_value());
}

TEST(BlockchainTest, FindCallForgetsARedeemReorgedAway) {
  const ChainParams params = FastParams();
  TestChain tc(params,
               Fund({Alice().public_key(), Bob().public_key()}, 100000));
  Blockchain& bc = tc.chain();
  Wallet alice(Alice(), params.id);
  Wallet bob(Bob(), params.id);

  const Bytes secret{3, 1, 4, 1, 5, 9};
  auto deploy = alice.BuildDeploy(
      bc.StateAtHead(), contracts::kHtlcKind,
      Encode(contracts::HtlcInit{
          Bob().public_key(), crypto::Hash256::Of(secret), Minutes(60)}),
      500, params.deploy_fee, /*nonce=*/1);
  ASSERT_TRUE(deploy.ok());
  const crypto::Hash256 contract_id = deploy->Id();
  ASSERT_TRUE(tc.MineBlock({*deploy}).ok());
  const BlockEntry* deployed = bc.head();
  auto redeem = bob.BuildCall(bc.StateAtHead(), contract_id,
                              contracts::kRedeemFunction, secret, 1,
                              /*nonce=*/1);
  ASSERT_TRUE(redeem.ok());
  ASSERT_TRUE(tc.MineBlock({*redeem}).ok());

  const BlockEntry* redeemed = bc.head();
  auto call = bc.FindCall(contract_id, contracts::kRedeemFunction,
                          /*require_success=*/true);
  ASSERT_TRUE(call.has_value());
  EXPECT_EQ(call->entry, redeemed);
  EXPECT_EQ(redeemed->block.txs[call->index].Id(), redeem->Id());

  // A two-block fork off the deploy block overtakes the redeem block.
  ASSERT_TRUE(tc.MineBlockOn(deployed->hash, {}).ok());
  ASSERT_TRUE(tc.MineBlockOn(bc.arrival_order().back()->hash, {}).ok());
  ASSERT_EQ(bc.head()->parent->parent, deployed);
  for (bool require_success : {false, true}) {
    EXPECT_FALSE(bc.FindCall(contract_id, contracts::kRedeemFunction,
                             require_success)
                     .has_value());
  }
  EXPECT_FALSE(bc.FindTx(redeem->Id()).has_value());

  // Re-mining the same redeem on the winning branch brings the call back.
  ASSERT_TRUE(tc.MineBlock({*redeem}).ok());
  call = bc.FindCall(contract_id, contracts::kRedeemFunction,
                     /*require_success=*/true);
  ASSERT_TRUE(call.has_value());
  EXPECT_EQ(call->entry, bc.head());
  EXPECT_NE(call->entry, redeemed);
  // The losing fork still holds its own copy of the call.
  EXPECT_TRUE(bc.TxOnBranch(*redeemed, redeem->Id()));
}

// ------------------------------------------------------------- chain index

const crypto::KeyPair kAlice = crypto::KeyPair::FromSeed(61);
const crypto::KeyPair kBob = crypto::KeyPair::FromSeed(62);
const crypto::KeyPair kMiner = crypto::KeyPair::FromSeed(63);

ChainParams ChurnParams() {
  ChainParams params = TestChainParams();
  params.difficulty_bits = 4;
  return params;
}

// Reference answers, computed by walking parent links from a tip: what
// the ChainIndex occurrence and call lists must reproduce.

/// Where `tx_id` sits in `entry`'s block, found by a scan of its
/// transactions.
std::optional<uint32_t> PositionIn(const BlockEntry& entry,
                                   const crypto::Hash256& tx_id) {
  for (uint32_t i = 0; i < entry.block.txs.size(); ++i) {
    if (entry.block.txs[i].Id() == tx_id) return i;
  }
  return std::nullopt;
}

std::optional<TxLocation> WalkFindTx(const BlockEntry* tip,
                                     const crypto::Hash256& tx_id) {
  for (const BlockEntry* entry = tip; entry != nullptr; entry = entry->parent) {
    const std::optional<uint32_t> position = PositionIn(*entry, tx_id);
    if (position.has_value()) return TxLocation{entry, *position};
  }
  return std::nullopt;
}

std::optional<TxLocation> WalkFindCall(const BlockEntry* tip,
                                       const crypto::Hash256& contract_id,
                                       const std::string& function,
                                       bool require_success) {
  for (const BlockEntry* entry = tip; entry != nullptr; entry = entry->parent) {
    for (const CallRecord& call : entry->calls) {
      if (call.contract_id == contract_id && call.function == function &&
          (!require_success || call.success)) {
        return TxLocation{entry, call.tx_index};
      }
    }
  }
  return std::nullopt;
}

std::optional<uint64_t> WalkConfirmations(const BlockEntry* head,
                                          const BlockEntry* entry) {
  for (const BlockEntry* walk = head; walk != nullptr; walk = walk->parent) {
    if (walk == entry) return head->height() - entry->height();
  }
  return std::nullopt;
}

void ExpectSameLocation(const std::optional<TxLocation>& got,
                        const std::optional<TxLocation>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got.has_value()) return;
  EXPECT_EQ(got->entry, want->entry);
  EXPECT_EQ(got->index, want->index);
}

TEST(ChainIndexTest, ForkReorgChurnMatchesParentWalk) {
  const ChainParams params = ChurnParams();
  Blockchain bc(params, Fund({kAlice.public_key(), kBob.public_key()}, 100000));

  Rng rng(777);
  TimePoint now = 0;
  // Indexed ids (coinbases, the deploy and call, watched transfers), which
  // the parent-link walk answers for, and the unwatched transfers, which
  // must read absent.
  std::vector<crypto::Hash256> tx_ids;
  std::vector<crypto::Hash256> unwatched;
  auto mine_on = [&](const crypto::Hash256& parent,
                     const std::vector<Transaction>& txs, bool watch) {
    if (watch) {
      for (const Transaction& tx : txs) bc.Watch(tx.Id());
    }
    now += 100;
    auto block =
        bc.AssembleBlock(parent, txs, kMiner.public_key(), now, &rng);
    ASSERT_TRUE(block.ok());
    ASSERT_TRUE(bc.SubmitBlock(*block, now).ok());
    for (const Transaction& tx : block->txs) {
      const bool indexed = watch || tx.type() != TxType::kTransfer;
      (indexed ? tx_ids : unwatched).push_back(tx.Id());
    }
  };

  Wallet alice(kAlice, params.id);
  Wallet bob(kBob, params.id);

  // An HTLC deploy + redeem so FindCall has real traffic to index.
  const Bytes secret{4, 8, 15, 16, 23, 42};
  auto deploy = alice.BuildDeploy(
      bc.StateAtHead(), contracts::kHtlcKind,
      Encode(contracts::HtlcInit{
          kBob.public_key(), crypto::Hash256::Of(secret), Minutes(60)}),
      500, params.deploy_fee, /*nonce=*/1);
  ASSERT_TRUE(deploy.ok());
  const crypto::Hash256 contract_id = deploy->Id();
  mine_on(bc.head()->hash, {*deploy}, /*watch=*/false);
  auto redeem = bob.BuildCall(bc.StateAtHead(), contract_id,
                              contracts::kRedeemFunction, secret, 1,
                              /*nonce=*/1);
  ASSERT_TRUE(redeem.ok());
  mine_on(bc.head()->hash, {*redeem}, /*watch=*/false);

  // Randomized churn: transfers on the head, every other one watched, plus
  // empty fork blocks on random recent parents (some of which overtake the
  // head — reorgs).
  uint64_t nonce = 2;
  for (int round = 0; round < 40; ++round) {
    if (rng.NextU64() % 3 == 0) {
      auto tx = alice.BuildTransfer(bc.StateAtHead(), kBob.public_key(),
                                    1 + rng.NextU64() % 5, 1, nonce++);
      ASSERT_TRUE(tx.ok());
      mine_on(bc.head()->hash, {*tx}, /*watch=*/nonce % 2 == 0);
    } else {
      const auto& arrivals = bc.arrival_order();
      const size_t window = std::min<size_t>(arrivals.size(), 6);
      const BlockEntry* parent =
          arrivals[arrivals.size() - 1 - rng.NextU64() % window];
      mine_on(parent->hash, {}, /*watch=*/false);
    }
  }
  ASSERT_GT(bc.block_count(), 40u);
  ASSERT_GT(unwatched.size(), 0u);

  // Every query the facade exposes answers like the parent-link walk.
  const BlockEntry* head = bc.head();
  size_t off_branch = 0;
  for (const crypto::Hash256& tx_id : tx_ids) {
    const std::optional<TxLocation> want = WalkFindTx(head, tx_id);
    if (!want.has_value()) ++off_branch;
    ExpectSameLocation(bc.FindTx(tx_id), want);
    for (const BlockEntry* tip : bc.arrival_order()) {
      EXPECT_EQ(bc.TxOnBranch(*tip, tx_id),
                WalkFindTx(tip, tx_id).has_value());
    }
  }
  // The churn must leave transactions on losing forks, or FindTx's
  // branch filter goes unexercised.
  EXPECT_GT(off_branch, 0u);
  for (const crypto::Hash256& tx_id : unwatched) {
    EXPECT_FALSE(bc.FindTx(tx_id).has_value());
    for (const BlockEntry* tip : bc.arrival_order()) {
      EXPECT_FALSE(bc.TxOnBranch(*tip, tx_id));
    }
  }
  for (bool require_success : {false, true}) {
    ExpectSameLocation(
        bc.FindCall(contract_id, contracts::kRedeemFunction, require_success),
        WalkFindCall(head, contract_id, contracts::kRedeemFunction,
                     require_success));
  }
  // Entry by entry: the pointer handed out at arrival is still the stored
  // entry after all the churn (entries never move), and its canonical
  // depth matches the walk.
  for (const BlockEntry* entry : bc.arrival_order()) {
    EXPECT_EQ(bc.Get(entry->hash), entry);
    EXPECT_EQ(bc.ConfirmationsOf(entry->hash), WalkConfirmations(head, entry));
  }
  EXPECT_EQ(bc.arrival_order().size(), bc.block_count());
}

TEST(ChainIndexTest, EntrySnapshotsAreIndependentOfLaterChurn) {
  testutil::TestChain tc(ChurnParams(),
                         testutil::Fund({kAlice.public_key()}, 1000));
  chain::Wallet alice(kAlice, tc.chain().id());
  auto tx = alice.BuildTransfer(tc.chain().StateAtHead(), kBob.public_key(),
                                100, 1, 1);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(tc.MineBlock({*tx}).ok());
  const chain::BlockEntry* snapshot_entry = tc.chain().head();
  const chain::Amount bob_then =
      tc.chain().StateAt(*snapshot_entry).BalanceOf(kBob.public_key());
  EXPECT_EQ(bob_then, 100);

  // Later blocks (including a fork off the snapshot's parent) must not
  // disturb the entry's state: its child takes it over, and StateAt
  // replays it.
  auto tx2 = alice.BuildTransfer(tc.chain().StateAtHead(), kBob.public_key(),
                                 25, 1, 2);
  ASSERT_TRUE(tx2.ok());
  ASSERT_TRUE(tc.MineBlock({*tx2}).ok());
  ASSERT_TRUE(tc.MineBlockOn(snapshot_entry->block.header.prev_hash, {}).ok());
  ASSERT_TRUE(tc.MineEmpty(5).ok());
  EXPECT_EQ(tc.chain().StateAt(*snapshot_entry).BalanceOf(kBob.public_key()),
            bob_then);
  EXPECT_EQ(tc.chain().StateAtHead().BalanceOf(kBob.public_key()), 125);
}

// Hand-built entries for driving a ChainIndex directly. The index reads
// only an entry's hash, height, parent, transactions and calls, so no
// block has to be mined or validated.

/// Transactions placed at positions of an entry's block.
using TxSlots = std::vector<std::pair<Transaction, uint32_t>>;

crypto::Hash256 Key(const std::string& label) {
  return crypto::Hash256::OfString(label);
}

/// A transaction of its own for each label: a coinbase whose nonce is the
/// label's hash.
Transaction Tx(const std::string& label) {
  MutableTransaction coinbase;
  coinbase.type = TxType::kCoinbase;
  coinbase.nonce = Key(label).Prefix64();
  return Transaction(std::move(coinbase));
}

// `prefix` followed by `n` in decimal.
std::string Numbered(const std::string& prefix, int n) {
  std::string label = prefix;
  label += std::to_string(n);
  return label;
}

const BlockEntry* StoreEntry(ChainIndex* index, const std::string& label,
                             const BlockEntry* parent,
                             const TxSlots& txs = {},
                             std::vector<CallRecord> calls = {}) {
  BlockEntry entry;
  entry.hash = Key(label);
  entry.parent = parent;
  if (parent != nullptr) {
    entry.block.header.height = parent->height() + 1;
    entry.block.header.prev_hash = parent->hash;
  }
  // Positions no slot names hold fillers of this entry's own.
  for (const auto& [tx, position] : txs) {
    while (entry.block.txs.size() <= position) {
      entry.block.txs.push_back(
          Tx(label + "/filler" + std::to_string(entry.block.txs.size())));
    }
    entry.block.txs[position] = tx;
  }
  entry.calls = std::move(calls);
  const crypto::Hash256 hash = entry.hash;
  return index->Store(hash, std::move(entry));
}

// The `on_branch` predicate for the branch genesis..`tip`.
auto BranchOf(const BlockEntry* tip) {
  return [tip](const BlockEntry& entry) {
    const BlockEntry* walk = tip;
    while (walk != nullptr && walk->height() > entry.height()) {
      walk = walk->parent;
    }
    return walk == &entry;
  };
}

TEST(ChainIndexTest, StoreFindsEntriesByHash) {
  ChainIndex index;
  EXPECT_EQ(index.EntryCount(), 0u);
  EXPECT_FALSE(index.Contains(Key("genesis")));
  EXPECT_EQ(index.FindEntry(Key("genesis")), nullptr);

  const BlockEntry* genesis = StoreEntry(&index, "genesis", nullptr);
  const BlockEntry* a1 = StoreEntry(&index, "a1", genesis);
  const BlockEntry* b1 = StoreEntry(&index, "b1", genesis);
  EXPECT_EQ(index.EntryCount(), 3u);
  for (const BlockEntry* stored : {genesis, a1, b1}) {
    EXPECT_TRUE(index.Contains(stored->hash));
    EXPECT_EQ(index.FindEntry(stored->hash), stored);
  }
  EXPECT_EQ(a1->hash, Key("a1"));
  EXPECT_EQ(b1->parent, genesis);
  EXPECT_EQ(b1->height(), 1u);
  EXPECT_FALSE(index.Contains(Key("a2")));
  EXPECT_EQ(index.FindEntry(Key("a2")), nullptr);
}

TEST(ChainIndexTest, StoredEntriesStayPutAcrossRehash) {
  ChainIndex index;
  const Transaction tx = Tx("tx");
  const crypto::Hash256 contract = Key("contract");
  const BlockEntry* genesis =
      StoreEntry(&index, "genesis", nullptr, {{tx, 0}},
                 {CallRecord{contract, "redeem", 0, true}});

  // Enough entries, each with its own transaction and contract, that all
  // three maps rehash several times over.
  std::vector<const BlockEntry*> stored = {genesis};
  for (int i = 0; i < 2000; ++i) {
    const std::string label = Numbered("e", i);
    stored.push_back(
        StoreEntry(&index, label, stored.back(), {{Tx("tx" + label), 0}},
                   {CallRecord{Key("c" + label), "redeem", 0, true}}));
  }
  EXPECT_EQ(index.EntryCount(), stored.size());
  for (const BlockEntry* entry : stored) {
    EXPECT_EQ(index.FindEntry(entry->hash), entry);
  }
  // The occurrence and call lists still point at the first entry, whose
  // contents are intact.
  ASSERT_EQ(index.OccurrencesOf(tx.Id()).size(), 1u);
  EXPECT_EQ(index.OccurrencesOf(tx.Id())[0].entry, genesis);
  EXPECT_EQ(PositionIn(*genesis, tx.Id()), 0u);
  const auto call =
      index.FindCall(contract, "redeem", true, BranchOf(stored.back()));
  ASSERT_TRUE(call.has_value());
  EXPECT_EQ(call->entry, genesis);
}

TEST(ChainIndexTest, OccurrencesListForkSiblingsInStoreOrder) {
  ChainIndex index;
  const Transaction tx = Tx("shared");
  const Transaction other = Tx("other");
  const BlockEntry* genesis = StoreEntry(&index, "genesis", nullptr);
  // One transaction mined into three sibling blocks, at a different index
  // in each, and into a grandchild on a fourth branch.
  const BlockEntry* c = StoreEntry(&index, "c", genesis, {{tx, 2}});
  const BlockEntry* a = StoreEntry(&index, "a", genesis, {{tx, 0}});
  const BlockEntry* empty = StoreEntry(&index, "empty", genesis);
  const BlockEntry* b =
      StoreEntry(&index, "b", genesis, {{other, 0}, {tx, 1}});
  const BlockEntry* d = StoreEntry(&index, "d", empty, {{tx, 3}});

  const std::vector<TxLocation> want = {{c, 2}, {a, 0}, {b, 1}, {d, 3}};
  const std::span<const TxLocation> got = index.OccurrencesOf(tx.Id());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].entry, want[i].entry) << "occurrence " << i;
    EXPECT_EQ(got[i].index, want[i].index) << "occurrence " << i;
  }
  ASSERT_EQ(index.OccurrencesOf(other.Id()).size(), 1u);
  EXPECT_EQ(index.OccurrencesOf(other.Id())[0].entry, b);
  EXPECT_EQ(index.OccurrencesOf(other.Id())[0].index, 0u);
}

TEST(ChainIndexTest, UnknownKeysAnswerEmpty) {
  ChainIndex index;
  const auto any_branch = [](const BlockEntry&) { return true; };
  EXPECT_TRUE(index.OccurrencesOf(Tx("tx").Id()).empty());
  EXPECT_FALSE(index.FindTx(Tx("tx").Id(), any_branch).has_value());
  EXPECT_FALSE(
      index.FindCall(Key("contract"), "redeem", false, any_branch).has_value());

  StoreEntry(&index, "genesis", nullptr, {{Tx("tx"), 0}},
             {CallRecord{Key("contract"), "redeem", 0, true}});
  EXPECT_TRUE(index.FindTx(Tx("tx").Id(), any_branch).has_value());
  EXPECT_TRUE(
      index.FindCall(Key("contract"), "redeem", false, any_branch).has_value());
  // A stored key answers only for itself: not for another transaction,
  // another contract, or another function on the same contract.
  EXPECT_TRUE(index.OccurrencesOf(Tx("tx2").Id()).empty());
  EXPECT_FALSE(index.FindTx(Tx("tx2").Id(), any_branch).has_value());
  EXPECT_FALSE(index.FindCall(Key("contract2"), "redeem", false, any_branch)
                   .has_value());
  EXPECT_FALSE(
      index.FindCall(Key("contract"), "refund", false, any_branch).has_value());
}

// Coinbases, deploys and calls are indexed whenever stored; a transfer
// only from a watch on: one stored before its watch stays unindexed.
TEST(ChainIndexTest, IndexesTransfersOnlyFromTheirWatchOn) {
  ChainIndex index;
  const auto any_branch = [](const BlockEntry&) { return true; };
  const auto of_type = [](TxType type, const std::string& label) {
    MutableTransaction m;
    m.type = type;
    m.nonce = Key(label).Prefix64();
    return Transaction(std::move(m));
  };
  const Transaction watched = of_type(TxType::kTransfer, "watched");
  const Transaction late = of_type(TxType::kTransfer, "late");
  const Transaction unwatched = of_type(TxType::kTransfer, "unwatched");
  const Transaction deploy = of_type(TxType::kDeploy, "deploy");
  const Transaction call = of_type(TxType::kCall, "call");
  index.Watch(watched.Id());
  index.Watch(watched.Id());  // A second watch changes nothing.
  EXPECT_TRUE(index.OccurrencesOf(watched.Id()).empty());  // Not yet stored.
  EXPECT_FALSE(index.FindTx(watched.Id(), any_branch).has_value());

  const BlockEntry* genesis = StoreEntry(&index, "genesis", nullptr);
  const BlockEntry* a = StoreEntry(
      &index, "a", genesis,
      {{watched, 1}, {late, 2}, {unwatched, 3}, {deploy, 4}, {call, 5}});
  index.Watch(late.Id());
  const BlockEntry* b = StoreEntry(&index, "b", genesis,
                                   {{unwatched, 1}, {late, 2}, {watched, 3}});

  const std::span<const TxLocation> watched_at =
      index.OccurrencesOf(watched.Id());
  ASSERT_EQ(watched_at.size(), 2u);
  EXPECT_EQ(watched_at[0].entry, a);
  EXPECT_EQ(watched_at[1].entry, b);
  EXPECT_EQ(watched_at[1].index, 3u);
  // `late` was watched between the stores: only b's copy is indexed.
  const std::span<const TxLocation> late_at = index.OccurrencesOf(late.Id());
  ASSERT_EQ(late_at.size(), 1u);
  EXPECT_EQ(late_at[0].entry, b);
  EXPECT_TRUE(index.OccurrencesOf(unwatched.Id()).empty());
  EXPECT_FALSE(index.FindTx(unwatched.Id(), any_branch).has_value());
  ExpectSameLocation(index.FindTx(deploy.Id(), any_branch), TxLocation{a, 4});
  ExpectSameLocation(index.FindTx(call.Id(), any_branch), TxLocation{a, 5});
  // Position 0 holds each entry's own coinbase filler.
  ExpectSameLocation(index.FindTx(a->block.txs[0].Id(), any_branch),
                     TxLocation{a, 0});
}

TEST(ChainIndexTest, FindTxReturnsTheOccurrenceOnTheSelectedBranch) {
  ChainIndex index;
  const Transaction tx_in_blocks = Tx("tx");
  const crypto::Hash256& tx = tx_in_blocks.Id();
  const BlockEntry* genesis = StoreEntry(&index, "genesis", nullptr);
  const BlockEntry* a1 =
      StoreEntry(&index, "a1", genesis, {{tx_in_blocks, 0}});
  const BlockEntry* b1 = StoreEntry(&index, "b1", genesis);
  const BlockEntry* b2 = StoreEntry(&index, "b2", b1, {{tx_in_blocks, 1}});
  const BlockEntry* c1 = StoreEntry(&index, "c1", genesis);

  ExpectSameLocation(index.FindTx(tx, BranchOf(a1)), TxLocation{a1, 0});
  ExpectSameLocation(index.FindTx(tx, BranchOf(b2)), TxLocation{b2, 1});
  // b1 precedes the inclusion on its own branch; c1's branch never has it.
  EXPECT_FALSE(index.FindTx(tx, BranchOf(b1)).has_value());
  EXPECT_FALSE(index.FindTx(tx, BranchOf(c1)).has_value());

  // The predicate is asked only about entries holding the transaction,
  // in store order, and the scan stops at the first hit.
  std::vector<const BlockEntry*> asked;
  const auto on_b_branch = [&](const BlockEntry& entry) {
    asked.push_back(&entry);
    return BranchOf(b2)(entry);
  };
  ExpectSameLocation(index.FindTx(tx, on_b_branch), TxLocation{b2, 1});
  EXPECT_EQ(asked, (std::vector<const BlockEntry*>{a1, b2}));
  asked.clear();
  const auto any_branch = [&](const BlockEntry& entry) {
    asked.push_back(&entry);
    return true;
  };
  ExpectSameLocation(index.FindTx(tx, any_branch), TxLocation{a1, 0});
  EXPECT_EQ(asked, (std::vector<const BlockEntry*>{a1}));
}

TEST(ChainIndexTest, FindCallPrefersTheNewestOnBranchCall) {
  ChainIndex index;
  const crypto::Hash256 contract = Key("contract");
  const auto redeem = [&](uint32_t tx_index) {
    return std::vector<CallRecord>{
        CallRecord{contract, "redeem", tx_index, true}};
  };
  const BlockEntry* genesis = StoreEntry(&index, "genesis", nullptr);
  const BlockEntry* m1 = StoreEntry(&index, "m1", genesis, {}, redeem(0));
  const BlockEntry* m2 = StoreEntry(&index, "m2", m1);
  const BlockEntry* m3 = StoreEntry(&index, "m3", m2, {}, redeem(1));
  // A fork off m1, stored after the taller main branch.
  const BlockEntry* f2 = StoreEntry(&index, "f2", m1, {}, redeem(4));

  ExpectSameLocation(index.FindCall(contract, "redeem", false, BranchOf(m3)),
                     TxLocation{m3, 1});
  ExpectSameLocation(index.FindCall(contract, "redeem", false, BranchOf(f2)),
                     TxLocation{f2, 4});
  ExpectSameLocation(index.FindCall(contract, "redeem", false, BranchOf(m2)),
                     TxLocation{m1, 0});
  EXPECT_FALSE(index.FindCall(contract, "redeem", false, BranchOf(genesis))
                   .has_value());
}

TEST(ChainIndexTest, FindCallRequireSuccessSkipsFailedCalls) {
  ChainIndex index;
  const crypto::Hash256 contract = Key("contract");
  const BlockEntry* genesis = StoreEntry(&index, "genesis", nullptr);
  const BlockEntry* ok1 = StoreEntry(&index, "ok1", genesis, {},
                                     {CallRecord{contract, "redeem", 0, true}});
  const BlockEntry* bad2 = StoreEntry(
      &index, "bad2", ok1, {}, {CallRecord{contract, "redeem", 3, false}});
  const BlockEntry* bad1 = StoreEntry(
      &index, "bad1", genesis, {}, {CallRecord{contract, "redeem", 1, false}});

  ExpectSameLocation(index.FindCall(contract, "redeem", false, BranchOf(bad2)),
                     TxLocation{bad2, 3});
  ExpectSameLocation(index.FindCall(contract, "redeem", true, BranchOf(bad2)),
                     TxLocation{ok1, 0});
  // A branch whose only call failed has no successful call at all.
  ExpectSameLocation(index.FindCall(contract, "redeem", false, BranchOf(bad1)),
                     TxLocation{bad1, 1});
  EXPECT_FALSE(index.FindCall(contract, "redeem", true, BranchOf(bad1))
                   .has_value());
}

TEST(ChainIndexTest, FindCallTakesTheFirstMatchingCallInBlockOrder) {
  ChainIndex index;
  const crypto::Hash256 contract = Key("contract");
  const crypto::Hash256 other = Key("other");
  const BlockEntry* genesis = StoreEntry(&index, "genesis", nullptr);
  const BlockEntry* block = StoreEntry(&index, "block", genesis, {},
                                       {CallRecord{other, "redeem", 0, true},
                                        CallRecord{contract, "refund", 1, true},
                                        CallRecord{contract, "redeem", 2, false},
                                        CallRecord{contract, "redeem", 3, true},
                                        CallRecord{contract, "redeem", 5, true}});
  const auto on_branch = BranchOf(block);

  ExpectSameLocation(index.FindCall(contract, "redeem", false, on_branch),
                     TxLocation{block, 2});
  ExpectSameLocation(index.FindCall(contract, "redeem", true, on_branch),
                     TxLocation{block, 3});
  ExpectSameLocation(index.FindCall(contract, "refund", false, on_branch),
                     TxLocation{block, 1});
  ExpectSameLocation(index.FindCall(other, "redeem", true, on_branch),
                     TxLocation{block, 0});
  EXPECT_FALSE(index.FindCall(other, "refund", false, on_branch).has_value());
}

TEST(ChainIndexTest, RandomForkTreeMatchesParentWalk) {
  ChainIndex index;
  Rng rng(4242);
  // Pools small enough that each transaction and contract recurs across
  // many forks.
  std::vector<Transaction> txs;
  for (int i = 0; i < 24; ++i) txs.push_back(Tx(Numbered("tx", i)));
  std::vector<crypto::Hash256> contracts;
  for (int i = 0; i < 4; ++i) {
    contracts.push_back(Key(Numbered("contract", i)));
  }
  const std::vector<std::string> functions = {"redeem", "refund"};

  std::vector<const BlockEntry*> stored = {
      StoreEntry(&index, "genesis", nullptr)};
  for (int i = 0; i < 200; ++i) {
    const size_t window = std::min<size_t>(stored.size(), 8);
    const BlockEntry* parent =
        stored[stored.size() - 1 - rng.NextU64() % window];
    TxSlots slots;
    std::vector<CallRecord> calls;
    const uint64_t attempts = rng.NextU64() % 4;
    for (uint64_t k = 0; k < attempts; ++k) {
      const Transaction& tx = txs[rng.NextU64() % txs.size()];
      // At most once per branch, as block validation guarantees.
      const bool in_block = std::any_of(
          slots.begin(), slots.end(),
          [&](const auto& slot) { return slot.first.Id() == tx.Id(); });
      if (in_block || WalkFindTx(parent, tx.Id()).has_value()) continue;
      const uint32_t tx_index = static_cast<uint32_t>(slots.size());
      slots.emplace_back(tx, tx_index);
      if (rng.NextU64() % 2 == 0) {
        calls.push_back(CallRecord{contracts[rng.NextU64() % contracts.size()],
                                   functions[rng.NextU64() % functions.size()],
                                   tx_index, rng.NextU64() % 3 != 0});
      }
    }
    stored.push_back(StoreEntry(&index, Numbered("e", i), parent,
                                slots, std::move(calls)));
  }
  EXPECT_EQ(index.EntryCount(), stored.size());

  // Occurrence lists hold exactly the including entries, in store order.
  size_t repeated = 0;
  for (const Transaction& tx : txs) {
    std::vector<TxLocation> want;
    for (const BlockEntry* entry : stored) {
      const std::optional<uint32_t> position = PositionIn(*entry, tx.Id());
      if (position.has_value()) want.push_back({entry, *position});
    }
    if (want.size() > 1) ++repeated;
    const std::span<const TxLocation> got = index.OccurrencesOf(tx.Id());
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].entry, want[i].entry);
      EXPECT_EQ(got[i].index, want[i].index);
    }
  }
  // Fork siblings must share transactions, or the branch filters below go
  // unexercised.
  EXPECT_GT(repeated, 0u);

  // From every tip, FindTx and FindCall answer like the parent-link walk.
  for (const BlockEntry* tip : stored) {
    const auto on_branch = BranchOf(tip);
    for (const Transaction& tx : txs) {
      ExpectSameLocation(index.FindTx(tx.Id(), on_branch),
                         WalkFindTx(tip, tx.Id()));
    }
    for (const crypto::Hash256& contract : contracts) {
      for (const std::string& function : functions) {
        for (bool require_success : {false, true}) {
          ExpectSameLocation(
              index.FindCall(contract, function, require_success, on_branch),
              WalkFindCall(tip, contract, function, require_success));
        }
      }
    }
  }
}

// ----------------------------------------------------------------- mempool

TEST(MempoolTest, VisibilityByArrivalTime) {
  Mempool pool;
  MutableTransaction m;
  m.type = TxType::kTransfer;
  m.nonce = 1;
  m.SignWith(Alice());
  const Transaction tx(m);
  ASSERT_TRUE(pool.Submit(tx, 100).ok());
  EXPECT_TRUE(pool.CandidatePointersAt(50, {}).empty());
  EXPECT_EQ(pool.CandidatePointersAt(100, {}).size(), 1u);
}

TEST(MempoolTest, RejectsDuplicates) {
  Mempool pool;
  MutableTransaction m;
  m.type = TxType::kTransfer;
  m.nonce = 1;
  m.SignWith(Alice());
  const Transaction tx(m);
  ASSERT_TRUE(pool.Submit(tx, 0).ok());
  EXPECT_EQ(pool.Submit(tx, 5).code(), StatusCode::kAlreadyExists);
}

TEST(MempoolTest, ExcludesIncluded) {
  Mempool pool;
  MutableTransaction m;
  m.type = TxType::kTransfer;
  m.nonce = 1;
  m.SignWith(Alice());
  const Transaction tx(m);
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
  chain.Watch(tx->Id());

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
  // Attacker mines a longer private branch from 3 blocks back, each block
  // assembled on the previous one, then publishes it.
  const BlockEntry* fork_point = chain.StableBlock(3);
  const crypto::PublicKey attacker = crypto::KeyPair::FromSeed(99).public_key();
  Rng rng(56);
  crypto::Hash256 tip = fork_point->hash;
  for (int i = 0; i < 6; ++i) {
    const TimePoint now = sim.Now() + 1 + i;
    auto block = chain.AssembleBlock(tip, std::vector<Transaction>{},
                                     attacker, now, &rng);
    ASSERT_TRUE(block.ok());
    ASSERT_TRUE(chain.SubmitBlock(*block, now).ok());
    tip = block->header.Hash();
  }
  // 51% attack succeeded: the private branch is now canonical.
  EXPECT_EQ(chain.head()->hash, tip);
  EXPECT_EQ(chain.height(), fork_point->block.header.height + 6);
}

}  // namespace
}  // namespace ac3::chain
