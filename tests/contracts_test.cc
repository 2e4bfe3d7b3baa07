// Contract-layer tests: the Algorithm 1 template's state machine and its
// three instantiations (HTLC, Algorithm 2 CentralizedSC, Algorithm 4
// PermissionlessSC), the contract-kind table, and on-ledger execution
// (deploy fees, payouts, failed-guard receipts).

#include <utility>

#include <gtest/gtest.h>

#include "src/chain/ledger.h"
#include "src/contracts/atomic_swap_contract.h"
#include "src/contracts/centralized_contract.h"
#include "src/contracts/contract.h"
#include "src/contracts/htlc_contract.h"
#include "src/contracts/permissionless_contract.h"
#include "src/contracts/relay_contract.h"
#include "src/contracts/witness_contract.h"
#include "tests/test_util.h"

namespace ac3::contracts {
namespace {

const crypto::KeyPair kAlice = crypto::KeyPair::FromSeed(1);
const crypto::KeyPair kBob = crypto::KeyPair::FromSeed(2);
const crypto::KeyPair kTrent = crypto::KeyPair::FromSeed(3);

DeployContext MakeDeployCtx(chain::Amount value) {
  DeployContext ctx;
  ctx.chain_id = 0;
  ctx.tx_id = crypto::Hash256::Of(Bytes{1, 2, 3});
  ctx.sender = kAlice.public_key();
  ctx.value = value;
  ctx.block_time = 100;
  ctx.block_height = 1;
  return ctx;
}

struct CallEnv {
  std::vector<Payout> payouts;
  CallContext ctx;
  explicit CallEnv(TimePoint block_time = 200) {
    ctx.chain_id = 0;
    ctx.tx_id = crypto::Hash256::Of(Bytes{9});
    ctx.sender = kBob.public_key();
    ctx.block_time = block_time;
    ctx.block_height = 2;
    ctx.payouts = &payouts;
  }
};

Result<ContractPtr> MakeHtlc(const Bytes& secret, TimePoint timelock,
                             chain::Amount value = 500) {
  Bytes payload = Encode(HtlcInit{
      kBob.public_key(), crypto::Hash256::Of(secret), timelock});
  return HtlcContract::Create(payload, MakeDeployCtx(value));
}

// -------------------------------------------------- Algorithm 1 template

TEST(AtomicSwapTemplateTest, ConstructorInitializesPerAlgorithm1) {
  auto contract = MakeHtlc(Bytes{42}, 1000);
  ASSERT_TRUE(contract.ok());
  const auto* swap = dynamic_cast<const AtomicSwapContract*>(contract->get());
  ASSERT_NE(swap, nullptr);
  EXPECT_EQ(swap->state(), SwapState::kPublished);
  EXPECT_EQ(swap->sender(), kAlice.public_key());      // this.s = msg.sender
  EXPECT_EQ(swap->recipient(), kBob.public_key());     // this.r = r
  EXPECT_EQ(swap->locked_value(), 500u);               // this.a = msg.value
}

TEST(AtomicSwapTemplateTest, RedeemTransfersAssetToRecipient) {
  auto contract = MakeHtlc(Bytes{42}, 1000);
  ASSERT_TRUE(contract.ok());
  CallEnv env;
  auto outcome = (*contract)->Call(kRedeemFunction, Bytes{42}, env.ctx);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_EQ(env.payouts.size(), 1u);
  EXPECT_EQ(env.payouts[0].value, 500u);
  EXPECT_EQ(env.payouts[0].recipient, kBob.public_key());
  const auto* next =
      dynamic_cast<const AtomicSwapContract*>(outcome->next.get());
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->state(), SwapState::kRedeemed);
  EXPECT_EQ(next->locked_value(), 0u);
}

TEST(AtomicSwapTemplateTest, RefundTransfersAssetBackToSender) {
  auto contract = MakeHtlc(Bytes{42}, /*timelock=*/150);
  ASSERT_TRUE(contract.ok());
  CallEnv env(/*block_time=*/200);  // past the timelock
  auto outcome = (*contract)->Call(kRefundFunction, {}, env.ctx);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_EQ(env.payouts.size(), 1u);
  EXPECT_EQ(env.payouts[0].recipient, kAlice.public_key());
  const auto* next =
      dynamic_cast<const AtomicSwapContract*>(outcome->next.get());
  EXPECT_EQ(next->state(), SwapState::kRefunded);
}

TEST(AtomicSwapTemplateTest, RedeemRequiresStateP) {
  auto contract = MakeHtlc(Bytes{42}, 1000);
  CallEnv env;
  auto redeemed = (*contract)->Call(kRedeemFunction, Bytes{42}, env.ctx);
  ASSERT_TRUE(redeemed.ok());
  // Second redeem on the RD snapshot must fail the `requires` guard.
  CallEnv env2;
  auto again = redeemed->next->Call(kRedeemFunction, Bytes{42}, env2.ctx);
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(env2.payouts.empty());
}

TEST(AtomicSwapTemplateTest, RefundAfterRedeemImpossible) {
  // The state machine allows P->RD or P->RF, never RD->RF: the on-chain
  // backbone of atomicity.
  auto contract = MakeHtlc(Bytes{42}, /*timelock=*/150);
  CallEnv env(/*block_time=*/200);
  auto redeemed = (*contract)->Call(kRedeemFunction, Bytes{42}, env.ctx);
  ASSERT_TRUE(redeemed.ok());
  CallEnv env2(/*block_time=*/500);
  auto refund = redeemed->next->Call(kRefundFunction, {}, env2.ctx);
  EXPECT_EQ(refund.status().code(), StatusCode::kFailedPrecondition);
}

TEST(AtomicSwapTemplateTest, UnknownFunctionRejected) {
  auto contract = MakeHtlc(Bytes{42}, 1000);
  CallEnv env;
  auto outcome = (*contract)->Call("selfdestruct", {}, env.ctx);
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

TEST(AtomicSwapTemplateTest, FailedGuardLeavesStateUnchanged) {
  auto contract = MakeHtlc(Bytes{42}, 1000);
  CallEnv env;
  auto outcome = (*contract)->Call(kRedeemFunction, Bytes{7}, env.ctx);
  EXPECT_FALSE(outcome.ok());
  EXPECT_TRUE(env.payouts.empty());
  const auto* swap = dynamic_cast<const AtomicSwapContract*>(contract->get());
  EXPECT_EQ(swap->state(), SwapState::kPublished);
}

// ------------------------------------------------------------------- HTLC

TEST(HtlcContractTest, RedeemRequiresPreimage) {
  auto contract = MakeHtlc(Bytes{1, 2, 3}, 1000);
  CallEnv env;
  EXPECT_FALSE((*contract)->Call(kRedeemFunction, Bytes{3, 2, 1}, env.ctx).ok());
  EXPECT_TRUE((*contract)->Call(kRedeemFunction, Bytes{1, 2, 3}, env.ctx).ok());
}

TEST(HtlcContractTest, RefundOnlyAfterTimelock) {
  auto contract = MakeHtlc(Bytes{1}, /*timelock=*/500);
  CallEnv before(/*block_time=*/499);
  EXPECT_FALSE((*contract)->Call(kRefundFunction, {}, before.ctx).ok());
  CallEnv at(/*block_time=*/500);
  EXPECT_TRUE((*contract)->Call(kRefundFunction, {}, at.ctx).ok());
}

TEST(HtlcContractTest, RejectsZeroValueDeploy) {
  auto contract = MakeHtlc(Bytes{1}, 1000, /*value=*/0);
  EXPECT_EQ(contract.status().code(), StatusCode::kInvalidArgument);
}

TEST(HtlcContractTest, CreateRejectsTrailingBytes) {
  Bytes payload = Encode(HtlcInit{
      kBob.public_key(), crypto::Hash256::Of(Bytes{1}), 1000});
  payload.push_back(0);
  EXPECT_FALSE(HtlcContract::Create(payload, MakeDeployCtx(500)).ok());
}

// ------------------------------------------------- Algorithm 2 (AC3TW SC)

class CentralizedContractTest : public ::testing::Test {
 protected:
  CentralizedContractTest() {
    ms_id_ = crypto::Hash256::Of(Bytes{0xAA});
    Bytes payload = Encode(CentralizedInit{
        kBob.public_key(), ms_id_, kTrent.public_key()});
    contract_ = *CentralizedContract::Create(payload, MakeDeployCtx(500));
  }

  crypto::Signature SignCommitment(crypto::CommitmentTag tag,
                                   const crypto::KeyPair& signer) const {
    return signer.Sign(crypto::SignatureCommitmentMessage(ms_id_, tag));
  }

  crypto::Hash256 ms_id_;
  ContractPtr contract_;
};

TEST_F(CentralizedContractTest, RedeemsWithTrentRedeemSignature) {
  CallEnv env;
  Bytes secret =
      Encode(SignCommitment(crypto::CommitmentTag::kRedeem, kTrent));
  auto outcome = contract_->Call(kRedeemFunction, secret, env.ctx);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(env.payouts[0].recipient, kBob.public_key());
}

TEST_F(CentralizedContractTest, RefundsWithTrentRefundSignature) {
  CallEnv env;
  Bytes secret =
      Encode(SignCommitment(crypto::CommitmentTag::kRefund, kTrent));
  auto outcome = contract_->Call(kRefundFunction, secret, env.ctx);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(env.payouts[0].recipient, kAlice.public_key());
}

TEST_F(CentralizedContractTest, TagsAreMutuallyExclusive) {
  // T(ms, RF) cannot redeem and T(ms, RD) cannot refund.
  CallEnv env;
  Bytes refund_sig =
      Encode(SignCommitment(crypto::CommitmentTag::kRefund, kTrent));
  EXPECT_FALSE(contract_->Call(kRedeemFunction, refund_sig, env.ctx).ok());
  Bytes redeem_sig =
      Encode(SignCommitment(crypto::CommitmentTag::kRedeem, kTrent));
  EXPECT_FALSE(contract_->Call(kRefundFunction, redeem_sig, env.ctx).ok());
}

TEST_F(CentralizedContractTest, RejectsNonTrentSignature) {
  CallEnv env;
  Bytes forged =
      Encode(SignCommitment(crypto::CommitmentTag::kRedeem, kAlice));
  EXPECT_FALSE(contract_->Call(kRedeemFunction, forged, env.ctx).ok());
}

TEST_F(CentralizedContractTest, RejectsSignatureForOtherSwap) {
  CallEnv env;
  crypto::Hash256 other_ms = crypto::Hash256::Of(Bytes{0xBB});
  Bytes other = Encode(kTrent.Sign(crypto::SignatureCommitmentMessage(
      other_ms, crypto::CommitmentTag::kRedeem)));
  EXPECT_FALSE(contract_->Call(kRedeemFunction, other, env.ctx).ok());
}

TEST_F(CentralizedContractTest, CreateRejectsTrailingBytes) {
  Bytes payload = Encode(CentralizedInit{
      kBob.public_key(), ms_id_, kTrent.public_key()});
  payload.push_back(0);
  EXPECT_FALSE(CentralizedContract::Create(payload, MakeDeployCtx(500)).ok());
}

TEST_F(CentralizedContractTest, SecretWithTrailingBytesDoesNotRedeem) {
  CallEnv env;
  Bytes secret =
      Encode(SignCommitment(crypto::CommitmentTag::kRedeem, kTrent));
  secret.push_back(0);
  EXPECT_FALSE(contract_->Call(kRedeemFunction, secret, env.ctx).ok());
}

TEST_F(CentralizedContractTest, RejectsGarbageArgs) {
  CallEnv env;
  EXPECT_FALSE(contract_->Call(kRedeemFunction, Bytes{1, 2}, env.ctx).ok());
  EXPECT_FALSE(contract_->Call(kRedeemFunction, {}, env.ctx).ok());
}

// ---------------------------------------------- AC3WN contract encodings

/// `encoded` with a zero byte added inside the length-prefixed field whose
/// u32 prefix starts at `prefix_at`: the prefix grows by one and the byte
/// follows the field's old end, so only the field's own decoder sees it.
Bytes WithByteInsideField(Bytes encoded, size_t prefix_at) {
  const uint32_t length =
      *Decode<uint32_t>(std::span(encoded).subspan(prefix_at, 4));
  StoreLe(encoded.data() + prefix_at, length + 1);
  encoded.insert(
      encoded.begin() + static_cast<ptrdiff_t>(prefix_at + 4 + length), 0);
  return encoded;
}

chain::BlockHeader SampleCheckpoint() {
  chain::BlockHeader header;
  header.height = 3;
  header.prev_hash = crypto::Hash256::Of(Bytes{3});
  header.difficulty_bits = 4;
  return header;
}

EdgeSpec SampleEdge() {
  EdgeSpec edge;
  edge.chain_id = 0;
  edge.sender = kAlice.public_key();
  edge.recipient = kBob.public_key();
  edge.amount = 400;
  edge.min_evidence_depth = 2;
  edge.asset_checkpoint = SampleCheckpoint();
  edge.asset_difficulty_bits = 4;
  return edge;
}

WitnessInit SampleWitnessInit() {
  WitnessInit init;
  init.participants = {kAlice.public_key(), kBob.public_key()};
  init.ms_encoded = Bytes{1, 2, 3};
  init.edges = {SampleEdge()};
  return init;
}

PermissionlessInit SamplePermissionlessInit() {
  PermissionlessInit init;
  init.recipient = kBob.public_key();
  init.witness_chain_id = 1;
  init.scw_id = crypto::Hash256::Of(Bytes{5});
  init.depth = 2;
  init.witness_checkpoint = SampleCheckpoint();
  init.witness_difficulty_bits = 4;
  return init;
}

RelayInit SampleRelayInit() {
  RelayInit init;
  init.checkpoint = SampleCheckpoint();
  init.validated_difficulty_bits = 4;
  init.interesting_tx = crypto::Hash256::Of(Bytes{6});
  init.required_depth = 2;
  return init;
}

TEST(WitnessInitTest, DecodeRejectsTrailingBytes) {
  Bytes encoded = Encode(SampleWitnessInit());
  ASSERT_TRUE(Decode<WitnessInit>(encoded).ok());
  encoded.push_back(0);
  EXPECT_FALSE(Decode<WitnessInit>(encoded).ok());
}

TEST(WitnessInitTest, DecodeRejectsTrailingBytesInsideAnEdge) {
  const Bytes encoded = Encode(SampleWitnessInit());
  // The one edge is the last field.
  const size_t edge_prefix_at =
      encoded.size() - Encode(SampleEdge()).size() - 4;
  EXPECT_FALSE(
      Decode<WitnessInit>(WithByteInsideField(encoded, edge_prefix_at)).ok());
}

TEST(EdgeSpecTest, DecodeRejectsTrailingBytesInsideTheCheckpoint) {
  // chain_id, sender, recipient, amount, min_evidence_depth, checkpoint.
  const size_t checkpoint_prefix_at = 4 + 8 + 8 + 8 + 4;
  EXPECT_FALSE(Decode<EdgeSpec>(WithByteInsideField(Encode(SampleEdge()),
                                                    checkpoint_prefix_at))
                   .ok());
}

TEST(PermissionlessInitTest, DecodeRejectsTrailingBytes) {
  Bytes encoded = Encode(SamplePermissionlessInit());
  ASSERT_TRUE(Decode<PermissionlessInit>(encoded).ok());
  encoded.push_back(0);
  EXPECT_FALSE(Decode<PermissionlessInit>(encoded).ok());
}

TEST(PermissionlessInitTest, DecodeRejectsTrailingBytesInsideTheCheckpoint) {
  // recipient, witness_chain_id, scw_id, depth, checkpoint.
  const size_t checkpoint_prefix_at = 8 + 4 + 32 + 4;
  EXPECT_FALSE(Decode<PermissionlessInit>(
                   WithByteInsideField(Encode(SamplePermissionlessInit()),
                                       checkpoint_prefix_at))
                   .ok());
}

TEST(RelayInitTest, DecodeRejectsTrailingBytes) {
  Bytes encoded = Encode(SampleRelayInit());
  ASSERT_TRUE(Decode<RelayInit>(encoded).ok());
  encoded.push_back(0);
  EXPECT_FALSE(Decode<RelayInit>(encoded).ok());
}

TEST(RelayInitTest, DecodeRejectsTrailingBytesInsideTheCheckpoint) {
  // The checkpoint is the first field.
  EXPECT_FALSE(
      Decode<RelayInit>(WithByteInsideField(Encode(SampleRelayInit()), 0))
          .ok());
}

TEST(EdgeEvidenceTest, DecodeRejectsTrailingBytes) {
  HeaderChainEvidence evidence;
  evidence.headers = {SampleCheckpoint()};
  evidence.leaf = Bytes{7};
  Bytes encoded = Encode(EdgeEvidence{{evidence}});
  ASSERT_TRUE(Decode<EdgeEvidence>(encoded).ok());
  encoded.push_back(0);
  EXPECT_FALSE(Decode<EdgeEvidence>(encoded).ok());
}

// ------------------------------------------------------------ contract kinds

TEST(ContractDeployTest, EveryBuiltinKindResolves) {
  // The two sample payloads a deploy would refuse, made deployable: SCw
  // needs ms(D) signed by every participant, and PermissionlessSC a
  // checkpoint of the witness chain it names.
  WitnessInit witness = SampleWitnessInit();
  crypto::Multisignature ms(Bytes{1, 2, 3});
  ASSERT_TRUE(ms.AddSignature(kAlice).ok());
  ASSERT_TRUE(ms.AddSignature(kBob).ok());
  witness.ms_encoded = Encode(ms);
  PermissionlessInit permissionless = SamplePermissionlessInit();
  permissionless.witness_chain_id = permissionless.witness_checkpoint.chain_id;
  const std::pair<const char*, Bytes> kinds[] = {
      {kHtlcKind, Encode(HtlcInit{kBob.public_key(),
                                  crypto::Hash256::Of(Bytes{5}), 1000})},
      {kCentralizedKind,
       Encode(CentralizedInit{kBob.public_key(), crypto::Hash256::Of(Bytes{6}),
                              kTrent.public_key()})},
      {kPermissionlessKind, Encode(permissionless)},
      {kWitnessKind, Encode(witness)},
      {kRelayKind, Encode(SampleRelayInit())},
  };
  for (const auto& [kind, payload] : kinds) {
    auto contract = Deploy(kind, payload, MakeDeployCtx(9));
    ASSERT_TRUE(contract.ok()) << kind << ": " << contract.status();
    EXPECT_EQ((*contract)->Kind(), kind);
  }
}

TEST(ContractDeployTest, UnknownKindIsNotFound) {
  for (const char* kind : {"Bogus", "", "htlc", "HTLC "}) {
    auto contract = Deploy(kind, {}, MakeDeployCtx(1));
    ASSERT_FALSE(contract.ok()) << "'" << kind << "'";
    EXPECT_EQ(contract.status().code(), StatusCode::kNotFound)
        << "'" << kind << "'";
  }
}

// --------------------------------------------------------- ledger behaviour

TEST(ContractOnLedgerTest, DeployLocksValueAndCallPaysOut) {
  testutil::TestChain world(
      chain::TestChainParams(),
      testutil::Fund({kAlice.public_key(), kBob.public_key()}, 1000));
  chain::Wallet alice(kAlice, world.chain().id());
  chain::Wallet bob(kBob, world.chain().id());

  Bytes secret{7, 7, 7};
  Bytes payload = Encode(HtlcInit{
      kBob.public_key(), crypto::Hash256::Of(secret), /*timelock=*/60'000});
  auto deploy = alice.BuildDeploy(world.chain().StateAtHead(), kHtlcKind,
                                  payload, /*locked_value=*/400,
                                  /*fee=*/4, /*nonce=*/1);
  ASSERT_TRUE(deploy.ok()) << deploy.status();
  ASSERT_TRUE(world.MineBlock({*deploy}).ok());

  const chain::LedgerState& state = world.chain().StateAtHead();
  EXPECT_EQ(state.BalanceOf(kAlice.public_key()), 1000u - 400u - 4u);
  EXPECT_EQ(state.LockedValue(), 400u);
  auto contract = state.GetContract(deploy->Id());
  ASSERT_TRUE(contract.ok());

  auto redeem = bob.BuildCall(state, deploy->Id(), kRedeemFunction, secret,
                              /*fee=*/2, /*nonce=*/1);
  ASSERT_TRUE(redeem.ok()) << redeem.status();
  ASSERT_TRUE(world.MineBlock({*redeem}).ok());
  EXPECT_EQ(world.chain().StateAtHead().BalanceOf(kBob.public_key()),
            1000u - 2u + 400u);
  EXPECT_EQ(world.chain().StateAtHead().LockedValue(), 0u);
}

TEST(ContractOnLedgerTest, DeployWithTrailingPayloadByteFails) {
  testutil::TestChain world(chain::TestChainParams(),
                            testutil::Fund({kAlice.public_key()}, 1000));
  chain::Wallet alice(kAlice, world.chain().id());
  Bytes payload = Encode(HtlcInit{
      kBob.public_key(), crypto::Hash256::Of(Bytes{1}), 60'000});
  payload.push_back(0);
  auto deploy = alice.BuildDeploy(world.chain().StateAtHead(), kHtlcKind,
                                  payload, 400, 4, 1);
  ASSERT_TRUE(deploy.ok());
  const chain::LedgerState head = world.chain().StateAtHead();
  chain::LedgerDelta delta(head);
  EXPECT_FALSE(chain::ApplyTransaction(&delta, *deploy,
                                       chain::BlockEnv{world.chain().id(), 1,
                                                       100})
                   .ok());
}

TEST(ContractOnLedgerTest, CallWithTrailingArgByteFails) {
  testutil::TestChain world(
      chain::TestChainParams(),
      testutil::Fund({kAlice.public_key(), kBob.public_key()}, 1000));
  chain::Wallet alice(kAlice, world.chain().id());
  chain::Wallet bob(kBob, world.chain().id());
  const crypto::Hash256 ms_id = crypto::Hash256::Of(Bytes{0xAA});
  auto deploy = alice.BuildDeploy(
      world.chain().StateAtHead(), kCentralizedKind,
      Encode(CentralizedInit{kBob.public_key(), ms_id,
                                           kTrent.public_key()}),
      400, 4, 1);
  ASSERT_TRUE(deploy.ok());
  ASSERT_TRUE(world.MineBlock({*deploy}).ok());

  Bytes secret = Encode(kTrent.Sign(crypto::SignatureCommitmentMessage(
      ms_id, crypto::CommitmentTag::kRedeem)));
  secret.push_back(0);
  auto call = bob.BuildCall(world.chain().StateAtHead(), deploy->Id(),
                            kRedeemFunction, secret, 2, 1);
  ASSERT_TRUE(call.ok());
  ASSERT_TRUE(world.MineBlock({*call}).ok());
  auto location = world.chain().FindTx(call->Id());
  ASSERT_TRUE(location.has_value());
  EXPECT_FALSE(location->entry->block.receipts[location->index].success);
  EXPECT_EQ(world.chain().StateAtHead().LockedValue(), 400u);
}

TEST(ContractOnLedgerTest, FailedGuardRecordsUnsuccessfulReceipt) {
  testutil::TestChain world(
      chain::TestChainParams(),
      testutil::Fund({kAlice.public_key(), kBob.public_key()}, 1000));
  chain::Wallet alice(kAlice, world.chain().id());
  chain::Wallet bob(kBob, world.chain().id());

  Bytes payload = Encode(HtlcInit{
      kBob.public_key(), crypto::Hash256::Of(Bytes{1}), 60'000});
  auto deploy = alice.BuildDeploy(world.chain().StateAtHead(), kHtlcKind,
                                  payload, 400, 4, 1);
  ASSERT_TRUE(deploy.ok());
  ASSERT_TRUE(world.MineBlock({*deploy}).ok());

  // Wrong secret: the call lands on-chain but with success=false, and the
  // asset stays locked.
  auto bad = bob.BuildCall(world.chain().StateAtHead(), deploy->Id(),
                           kRedeemFunction, Bytes{9}, /*fee=*/2, /*nonce=*/1);
  ASSERT_TRUE(bad.ok());
  ASSERT_TRUE(world.MineBlock({*bad}).ok());
  auto location = world.chain().FindTx(bad->Id());
  ASSERT_TRUE(location.has_value());
  EXPECT_FALSE(location->entry->block.receipts[location->index].success);
  EXPECT_EQ(world.chain().StateAtHead().LockedValue(), 400u);
  // And no successful redeem call is discoverable.
  EXPECT_FALSE(world.chain()
                   .FindCall(deploy->Id(), kRedeemFunction,
                             /*require_success=*/true)
                   .has_value());
}

}  // namespace
}  // namespace ac3::contracts
