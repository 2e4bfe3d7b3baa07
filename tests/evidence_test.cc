// Section 4.3 tests: header-chain (SPV) evidence construction and
// verification, the relay contract of Figure 6, the witness contract's
// VerifyContracts (Algorithm 3), and the depth-d discipline of the
// permissionless asset contract (Algorithm 4).

#include "src/contracts/evidence.h"

#include <gtest/gtest.h>

#include "src/contracts/evidence_builder.h"
#include "src/contracts/permissionless_contract.h"
#include "src/contracts/relay_contract.h"
#include "src/contracts/witness_contract.h"
#include "src/graph/ac2t_graph.h"
#include "src/graph/multisig_graph.h"
#include "tests/test_util.h"

namespace ac3::contracts {
namespace {

const crypto::KeyPair kAlice = crypto::KeyPair::FromSeed(11);
const crypto::KeyPair kBob = crypto::KeyPair::FromSeed(12);
const crypto::KeyPair kMallory = crypto::KeyPair::FromSeed(13);

// A two-chain world driven by hand: an "asset" chain (validated) and a
// "witness" chain (validator), per Figure 6's terminology.
class EvidenceTest : public ::testing::Test {
 protected:
  EvidenceTest()
      : asset_(MakeParams("Asset", 0),
               testutil::Fund({kAlice.public_key(), kBob.public_key()}, 2000),
               /*seed=*/101),
        witness_(MakeParams("Witness", 1),
                 testutil::Fund({kAlice.public_key(), kBob.public_key()}, 2000),
                 /*seed=*/202),
        alice_asset_(kAlice, 0),
        bob_asset_(kBob, 0),
        alice_witness_(kAlice, 1) {}

  static chain::ChainParams MakeParams(const std::string& name,
                                       chain::ChainId id) {
    chain::ChainParams params = chain::TestChainParams();
    params.name = name;
    params.id = id;
    return params;
  }

  // Deploys SCw on the witness chain for a one-edge graph Alice -> Bob,
  // returning the SCw id. `min_depth` is the agreed evidence depth d.
  crypto::Hash256 DeployWitnessContract(uint32_t min_depth,
                                        chain::Amount amount = 400) {
    graph::Ac2tGraph graph(
        {kAlice.public_key(), kBob.public_key()},
        {graph::Ac2tEdge{0, 1, /*chain_id=*/0, amount}}, /*timestamp=*/7);
    auto ms = graph::SignGraph(graph, {kAlice, kBob});
    EXPECT_TRUE(ms.ok());

    WitnessInit init;
    init.participants = {kAlice.public_key(), kBob.public_key()};
    init.ms_encoded = Encode(*ms);
    EdgeSpec spec;
    spec.chain_id = 0;
    spec.sender = kAlice.public_key();
    spec.recipient = kBob.public_key();
    spec.amount = amount;
    spec.min_evidence_depth = min_depth;
    spec.asset_checkpoint = asset_.chain().genesis()->block.header;
    spec.asset_difficulty_bits = asset_.chain().params().difficulty_bits;
    init.edges.push_back(spec);

    auto deploy = alice_witness_.BuildDeploy(witness_.chain().StateAtHead(),
                                             kWitnessKind, Encode(init),
                                             /*locked_value=*/0, /*fee=*/4,
                                             /*nonce=*/next_nonce_++);
    EXPECT_TRUE(deploy.ok()) << deploy.status();
    EXPECT_TRUE(witness_.MineBlock({*deploy}).ok());
    return deploy->Id();
  }

  // Deploys the matching PermissionlessSC on the asset chain.
  crypto::Hash256 DeployAssetContract(const crypto::Hash256& scw_id,
                                      uint32_t depth,
                                      chain::Amount amount = 400) {
    PermissionlessInit init;
    init.recipient = kBob.public_key();
    init.witness_chain_id = 1;
    init.scw_id = scw_id;
    init.depth = depth;
    init.witness_checkpoint = witness_.chain().genesis()->block.header;
    init.witness_difficulty_bits = witness_.chain().params().difficulty_bits;
    last_asset_init_ = init;

    auto deploy = alice_asset_.BuildDeploy(asset_.chain().StateAtHead(),
                                           kPermissionlessKind, Encode(init),
                                           amount, /*fee=*/4,
                                           /*nonce=*/next_nonce_++);
    EXPECT_TRUE(deploy.ok()) << deploy.status();
    EXPECT_TRUE(asset_.MineBlock({*deploy}).ok());
    return deploy->Id();
  }

  const WitnessContract* Scw(const crypto::Hash256& scw_id) {
    auto contract = witness_.chain().ContractAtHead(scw_id);
    EXPECT_TRUE(contract.ok());
    return dynamic_cast<const WitnessContract*>(contract->get());
  }

  testutil::TestChain asset_;
  testutil::TestChain witness_;
  chain::Wallet alice_asset_;
  chain::Wallet bob_asset_;
  chain::Wallet alice_witness_;
  PermissionlessInit last_asset_init_;
  uint64_t next_nonce_ = 1;
};

// ------------------------------------------------------ canonical decoding

HeaderChainEvidence SmallEvidence() {
  HeaderChainEvidence ev;
  ev.headers.push_back(chain::BlockHeader{});
  ev.leaf = Bytes{1, 2, 3};
  ev.proof = *crypto::MerkleTree({crypto::Hash256::OfString("a"),
                                  crypto::Hash256::OfString("b")})
                  .Prove(0);
  return ev;
}

TEST(EvidenceDecodeTest, RoundTripsCanonicalBytes) {
  const Bytes encoded = Encode(SmallEvidence());
  auto decoded = Decode<HeaderChainEvidence>(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(Encode(*decoded), encoded);
}

TEST(EvidenceDecodeTest, RejectsTrailingBytes) {
  Bytes encoded = Encode(SmallEvidence());
  encoded.push_back(0);
  EXPECT_FALSE(Decode<HeaderChainEvidence>(encoded).ok());
}

TEST(EvidenceDecodeTest, RejectsTrailingBytesInsideAHeader) {
  const HeaderChainEvidence ev = SmallEvidence();
  Bytes header = Encode(ev.headers[0]);
  header.push_back(0);
  // The evidence's fields, with the one header as a padded byte string.
  const Bytes encoded = Encode(uint32_t{1}, header, ev.target_index,
                               ev.leaf_is_receipt, ev.leaf, Encode(ev.proof));
  EXPECT_FALSE(Decode<HeaderChainEvidence>(encoded).ok());
}

TEST(EvidenceDecodeTest, RejectsNonBooleanLeafKind) {
  Bytes encoded = Encode(SmallEvidence());
  // u32 header count, one u32-length-prefixed header, u32 target index.
  const size_t kind_at = 4 + (4 + chain::BlockHeader::kEncodedSize) + 4;
  ASSERT_EQ(encoded[kind_at], 0);
  encoded[kind_at] = 2;
  EXPECT_FALSE(Decode<HeaderChainEvidence>(encoded).ok());
}

// ------------------------------------------------- raw evidence mechanics

TEST_F(EvidenceTest, TxEvidenceVerifiesAgainstCheckpoint) {
  auto transfer = alice_asset_.BuildTransfer(asset_.chain().StateAtHead(),
                                             kBob.public_key(), 10, 1, 1);
  ASSERT_TRUE(transfer.ok());
  ASSERT_TRUE(asset_.MineTxToDepth(*transfer, 3).ok());

  auto evidence = BuildTxEvidence(
      asset_.chain(), asset_.chain().genesis()->hash, transfer->Id());
  ASSERT_TRUE(evidence.ok()) << evidence.status();
  EXPECT_GE(evidence->ConfirmationsShown(), 3u);
  EXPECT_TRUE(VerifyHeaderChainEvidence(
                  asset_.chain().genesis()->block.header,
                  asset_.chain().params().difficulty_bits, *evidence,
                  /*min_confirmations=*/3)
                  .ok());
}

TEST_F(EvidenceTest, EvidenceRoundTripsThroughEncoding) {
  auto transfer = alice_asset_.BuildTransfer(asset_.chain().StateAtHead(),
                                             kBob.public_key(), 10, 1, 1);
  ASSERT_TRUE(transfer.ok());
  ASSERT_TRUE(asset_.MineTxToDepth(*transfer, 2).ok());
  auto evidence = BuildTxEvidence(
      asset_.chain(), asset_.chain().genesis()->hash, transfer->Id());
  ASSERT_TRUE(evidence.ok());
  auto decoded = Decode<HeaderChainEvidence>(Encode(*evidence));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(VerifyHeaderChainEvidence(
                  asset_.chain().genesis()->block.header,
                  asset_.chain().params().difficulty_bits, *decoded, 2)
                  .ok());
}

TEST_F(EvidenceTest, InsufficientConfirmationsRejected) {
  auto transfer = alice_asset_.BuildTransfer(asset_.chain().StateAtHead(),
                                             kBob.public_key(), 10, 1, 1);
  ASSERT_TRUE(transfer.ok());
  ASSERT_TRUE(asset_.MineTxToDepth(*transfer, 1).ok());
  auto evidence = BuildTxEvidence(
      asset_.chain(), asset_.chain().genesis()->hash, transfer->Id());
  ASSERT_TRUE(evidence.ok());
  Status status = VerifyHeaderChainEvidence(
      asset_.chain().genesis()->block.header,
      asset_.chain().params().difficulty_bits, *evidence,
      /*min_confirmations=*/5);
  EXPECT_EQ(status.code(), StatusCode::kVerificationFailed);
}

TEST_F(EvidenceTest, WrongCheckpointRejected) {
  auto transfer = alice_asset_.BuildTransfer(asset_.chain().StateAtHead(),
                                             kBob.public_key(), 10, 1, 1);
  ASSERT_TRUE(transfer.ok());
  ASSERT_TRUE(asset_.MineTxToDepth(*transfer, 2).ok());
  auto evidence = BuildTxEvidence(
      asset_.chain(), asset_.chain().genesis()->hash, transfer->Id());
  ASSERT_TRUE(evidence.ok());
  // Verify against the *witness* chain's genesis: linkage must fail.
  Status status = VerifyHeaderChainEvidence(
      witness_.chain().genesis()->block.header,
      asset_.chain().params().difficulty_bits, *evidence, 0);
  EXPECT_FALSE(status.ok());
}

TEST_F(EvidenceTest, BrokenHeaderLinkageRejected) {
  auto transfer = alice_asset_.BuildTransfer(asset_.chain().StateAtHead(),
                                             kBob.public_key(), 10, 1, 1);
  ASSERT_TRUE(transfer.ok());
  ASSERT_TRUE(asset_.MineTxToDepth(*transfer, 3).ok());
  auto evidence = BuildTxEvidence(
      asset_.chain(), asset_.chain().genesis()->hash, transfer->Id());
  ASSERT_TRUE(evidence.ok());
  ASSERT_GE(evidence->headers.size(), 2u);
  // Drop a middle header: consecutive linkage breaks.
  evidence->headers.erase(evidence->headers.begin() + 1);
  if (evidence->target_index > 0) evidence->target_index -= 1;
  Status status = VerifyHeaderChainEvidence(
      asset_.chain().genesis()->block.header,
      asset_.chain().params().difficulty_bits, *evidence, 0);
  EXPECT_FALSE(status.ok());
}

TEST_F(EvidenceTest, HigherDifficultyRequirementRejected) {
  // A validator that demands more PoW than the evidence headers carry must
  // reject them (defense against cheaply mined fake branches).
  auto transfer = alice_asset_.BuildTransfer(asset_.chain().StateAtHead(),
                                             kBob.public_key(), 10, 1, 1);
  ASSERT_TRUE(transfer.ok());
  ASSERT_TRUE(asset_.MineTxToDepth(*transfer, 2).ok());
  auto evidence = BuildTxEvidence(
      asset_.chain(), asset_.chain().genesis()->hash, transfer->Id());
  ASSERT_TRUE(evidence.ok());
  Status status = VerifyHeaderChainEvidence(
      asset_.chain().genesis()->block.header,
      /*required_difficulty_bits=*/30, *evidence, 0);
  EXPECT_FALSE(status.ok());
}

// Difficulty fields come from deploy payloads, so a header may declare any
// uint32_t; one beyond the 64-bit digest prefix must fail its proof of work
// like any other header that falls short, not shift out of range.
TEST_F(EvidenceTest, OutOfRangeDeclaredDifficultyRejected) {
  auto transfer = alice_asset_.BuildTransfer(asset_.chain().StateAtHead(),
                                             kBob.public_key(), 10, 1, 1);
  ASSERT_TRUE(transfer.ok());
  ASSERT_TRUE(asset_.MineTxToDepth(*transfer, 2).ok());
  auto evidence = BuildTxEvidence(
      asset_.chain(), asset_.chain().genesis()->hash, transfer->Id());
  ASSERT_TRUE(evidence.ok());
  for (chain::BlockHeader& header : evidence->headers) {
    header.difficulty_bits = 100;
  }
  Status status = VerifyHeaderChainEvidence(
      asset_.chain().genesis()->block.header,
      /*required_difficulty_bits=*/100, *evidence, 0);
  EXPECT_EQ(status.code(), StatusCode::kVerificationFailed) << status;
}

TEST_F(EvidenceTest, SwappedLeafRejectedByMerkleProof) {
  auto t1 = alice_asset_.BuildTransfer(asset_.chain().StateAtHead(),
                                       kBob.public_key(), 10, 1, 1);
  auto t2 = bob_asset_.BuildTransfer(asset_.chain().StateAtHead(),
                                     kAlice.public_key(), 20, 1, 1);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(asset_.MineBlock({*t1, *t2}).ok());
  ASSERT_TRUE(asset_.MineEmpty(2).ok());
  auto evidence =
      BuildTxEvidence(asset_.chain(), asset_.chain().genesis()->hash, t1->Id());
  ASSERT_TRUE(evidence.ok());
  // Claim the proof covers t2 instead of t1.
  evidence->leaf = Encode(*t2);
  Status status = VerifyHeaderChainEvidence(
      asset_.chain().genesis()->block.header,
      asset_.chain().params().difficulty_bits, *evidence, 0);
  EXPECT_FALSE(status.ok());
}

TEST_F(EvidenceTest, ReceiptEvidenceBindsToReceiptRoot) {
  // Receipts and transactions live under different Merkle roots; a receipt
  // proof presented as a transaction proof must fail.
  auto scw_id = DeployWitnessContract(/*min_depth=*/0);
  auto sc_id = DeployAssetContract(scw_id, /*depth=*/0);
  (void)sc_id;
  ASSERT_TRUE(witness_.MineEmpty(2).ok());
  auto deploy_loc = witness_.chain().FindTx(scw_id);
  ASSERT_TRUE(deploy_loc.has_value());

  auto receipt_ev = BuildReceiptEvidence(
      witness_.chain(), witness_.chain().genesis()->hash, scw_id);
  ASSERT_TRUE(receipt_ev.ok()) << receipt_ev.status();
  EXPECT_TRUE(VerifyHeaderChainEvidence(
                  witness_.chain().genesis()->block.header,
                  witness_.chain().params().difficulty_bits, *receipt_ev, 0)
                  .ok());
  HeaderChainEvidence cross = *receipt_ev;
  cross.leaf_is_receipt = false;  // Lie about the leaf family.
  EXPECT_FALSE(VerifyHeaderChainEvidence(
                   witness_.chain().genesis()->block.header,
                   witness_.chain().params().difficulty_bits, cross, 0)
                   .ok());
}

// --------------------------------------------------------- relay contract

TEST_F(EvidenceTest, RelayContractAcceptsProofOfTx1) {
  // Figure 6: SC on blockchain2 stores a stable header of blockchain1 and
  // flips S1 -> S2 when evidence of TX1 arrives.
  auto tx1 = alice_asset_.BuildTransfer(asset_.chain().StateAtHead(),
                                        kBob.public_key(), 10, 1, 1);
  ASSERT_TRUE(tx1.ok());

  RelayInit init;
  init.checkpoint = asset_.chain().genesis()->block.header;
  init.validated_difficulty_bits = asset_.chain().params().difficulty_bits;
  init.interesting_tx = tx1->Id();
  init.required_depth = 2;
  auto deploy = alice_witness_.BuildDeploy(witness_.chain().StateAtHead(),
                                           kRelayKind, Encode(init), 0, 4,
                                           /*nonce=*/50);
  ASSERT_TRUE(deploy.ok());
  ASSERT_TRUE(witness_.MineBlock({*deploy}).ok());

  // TX1 takes place (label 3) and becomes stable (label 4).
  ASSERT_TRUE(asset_.MineTxToDepth(*tx1, 2).ok());
  auto evidence =
      BuildTxEvidence(asset_.chain(), asset_.chain().genesis()->hash, tx1->Id());
  ASSERT_TRUE(evidence.ok());

  // Submit the evidence (labels 5-6); the miners flip the relay to S2.
  auto call = alice_witness_.BuildCall(witness_.chain().StateAtHead(),
                                       deploy->Id(), kSubmitEvidenceFunction,
                                       Encode(*evidence), 2, /*nonce=*/51);
  ASSERT_TRUE(call.ok());
  ASSERT_TRUE(witness_.MineBlock({*call}).ok());

  auto relay = witness_.chain().ContractAtHead(deploy->Id());
  ASSERT_TRUE(relay.ok());
  const auto* rc = dynamic_cast<const RelayContract*>(relay->get());
  ASSERT_NE(rc, nullptr);
  EXPECT_EQ(rc->state(), RelayState::kS2);
}

TEST_F(EvidenceTest, RelayContractRejectsShallowEvidence) {
  auto tx1 = alice_asset_.BuildTransfer(asset_.chain().StateAtHead(),
                                        kBob.public_key(), 10, 1, 1);
  ASSERT_TRUE(tx1.ok());
  RelayInit init;
  init.checkpoint = asset_.chain().genesis()->block.header;
  init.validated_difficulty_bits = asset_.chain().params().difficulty_bits;
  init.interesting_tx = tx1->Id();
  init.required_depth = 4;
  auto deploy = alice_witness_.BuildDeploy(witness_.chain().StateAtHead(),
                                           kRelayKind, Encode(init), 0, 4, 60);
  ASSERT_TRUE(deploy.ok());
  ASSERT_TRUE(witness_.MineBlock({*deploy}).ok());

  ASSERT_TRUE(asset_.MineTxToDepth(*tx1, 1).ok());  // Only 1 confirmation.
  auto evidence =
      BuildTxEvidence(asset_.chain(), asset_.chain().genesis()->hash, tx1->Id());
  ASSERT_TRUE(evidence.ok());
  auto call = alice_witness_.BuildCall(witness_.chain().StateAtHead(),
                                       deploy->Id(), kSubmitEvidenceFunction,
                                       Encode(*evidence), 2, 61);
  ASSERT_TRUE(call.ok());
  ASSERT_TRUE(witness_.MineBlock({*call}).ok());
  const auto* rc = dynamic_cast<const RelayContract*>(
      witness_.chain().ContractAtHead(deploy->Id())->get());
  EXPECT_EQ(rc->state(), RelayState::kS1) << "shallow evidence must not flip";
}

// ----------------------------------------- Algorithm 3: VerifyContracts

TEST_F(EvidenceTest, WitnessVerifyContractsAcceptsMatchingDeployment) {
  auto scw_id = DeployWitnessContract(/*min_depth=*/1);
  auto sc_id = DeployAssetContract(scw_id, /*depth=*/1);
  ASSERT_TRUE(asset_.MineEmpty(1).ok());
  auto evidence =
      BuildTxEvidence(asset_.chain(), asset_.chain().genesis()->hash, sc_id);
  ASSERT_TRUE(evidence.ok());
  EXPECT_TRUE(Scw(scw_id)->VerifyContracts({*evidence}).ok());
}

TEST_F(EvidenceTest, VerifyContractsRejectsWrongSender) {
  auto scw_id = DeployWitnessContract(1);
  // Mallory (via Bob's wallet) deploys a contract with the right shape but
  // the wrong sender.
  PermissionlessInit init;
  init.recipient = kBob.public_key();
  init.witness_chain_id = 1;
  init.scw_id = scw_id;
  init.depth = 1;
  init.witness_checkpoint = witness_.chain().genesis()->block.header;
  init.witness_difficulty_bits = witness_.chain().params().difficulty_bits;
  auto deploy = bob_asset_.BuildDeploy(asset_.chain().StateAtHead(),
                                       kPermissionlessKind, Encode(init), 400,
                                       4, 70);
  ASSERT_TRUE(deploy.ok());
  ASSERT_TRUE(asset_.MineTxToDepth(*deploy, 1).ok());
  auto evidence = BuildTxEvidence(asset_.chain(),
                                  asset_.chain().genesis()->hash, deploy->Id());
  ASSERT_TRUE(evidence.ok());
  Status status = Scw(scw_id)->VerifyContracts({*evidence});
  EXPECT_EQ(status.code(), StatusCode::kVerificationFailed);
}

TEST_F(EvidenceTest, VerifyContractsRejectsWrongAmount) {
  auto scw_id = DeployWitnessContract(1, /*amount=*/400);
  auto sc_id = DeployAssetContract(scw_id, 1, /*amount=*/399);
  ASSERT_TRUE(asset_.MineEmpty(1).ok());
  auto evidence =
      BuildTxEvidence(asset_.chain(), asset_.chain().genesis()->hash, sc_id);
  ASSERT_TRUE(evidence.ok());
  EXPECT_FALSE(Scw(scw_id)->VerifyContracts({*evidence}).ok());
}

TEST_F(EvidenceTest, VerifyContractsRejectsForeignScwBinding) {
  auto scw_id = DeployWitnessContract(1);
  // The asset contract conditions on a DIFFERENT SCw — other participants
  // would never be able to redeem against this one.
  auto sc_id =
      DeployAssetContract(crypto::Hash256::Of(Bytes{0xEE}), /*depth=*/1);
  ASSERT_TRUE(asset_.MineEmpty(1).ok());
  auto evidence =
      BuildTxEvidence(asset_.chain(), asset_.chain().genesis()->hash, sc_id);
  ASSERT_TRUE(evidence.ok());
  EXPECT_FALSE(Scw(scw_id)->VerifyContracts({*evidence}).ok());
}

TEST_F(EvidenceTest, VerifyContractsRejectsShallowDepthAgreement) {
  auto scw_id = DeployWitnessContract(/*min_depth=*/4);
  auto sc_id = DeployAssetContract(scw_id, /*depth=*/1);  // Below agreement.
  ASSERT_TRUE(asset_.MineEmpty(1).ok());
  auto evidence =
      BuildTxEvidence(asset_.chain(), asset_.chain().genesis()->hash, sc_id);
  ASSERT_TRUE(evidence.ok());
  EXPECT_FALSE(Scw(scw_id)->VerifyContracts({*evidence}).ok());
}

TEST_F(EvidenceTest, VerifyContractsDemandsEvidencePerEdge) {
  auto scw_id = DeployWitnessContract(1);
  EXPECT_FALSE(Scw(scw_id)->VerifyContracts({}).ok());
}

// --------------------------------------- Algorithm 3: state transitions

TEST_F(EvidenceTest, AuthorizeRefundOnlyFromParticipants) {
  auto scw_id = DeployWitnessContract(1);
  const WitnessContract* scw = Scw(scw_id);

  std::vector<Payout> payouts;
  CallContext ctx;
  ctx.chain_id = 1;
  ctx.sender = kMallory.public_key();
  ctx.payouts = &payouts;
  auto outcome = scw->Call(kAuthorizeRefundFunction, {}, ctx);
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition);

  ctx.sender = kBob.public_key();
  auto ok = scw->Call(kAuthorizeRefundFunction, {}, ctx);
  ASSERT_TRUE(ok.ok()) << ok.status();
  const auto* next = dynamic_cast<const WitnessContract*>(ok->next.get());
  EXPECT_EQ(next->state(), WitnessState::kRefundAuthorized);
}

TEST_F(EvidenceTest, WitnessStateTransitionsAreMutuallyExclusive) {
  auto scw_id = DeployWitnessContract(1);
  const WitnessContract* scw = Scw(scw_id);
  std::vector<Payout> payouts;
  CallContext ctx;
  ctx.chain_id = 1;
  ctx.sender = kAlice.public_key();
  ctx.payouts = &payouts;

  auto refunded = scw->Call(kAuthorizeRefundFunction, {}, ctx);
  ASSERT_TRUE(refunded.ok());
  // From RFauth, neither transition is allowed any more.
  EXPECT_FALSE(refunded->next->Call(kAuthorizeRefundFunction, {}, ctx).ok());
  EXPECT_FALSE(
      refunded->next->Call(kAuthorizeRedeemFunction, Bytes{}, ctx).ok());
}

// ------------------------------------ Algorithm 4: the depth-d discipline

TEST_F(EvidenceTest, PermissionlessRedeemFollowsDepthDiscipline) {
  const uint32_t d = 3;
  auto scw_id = DeployWitnessContract(d);
  auto sc_id = DeployAssetContract(scw_id, d);
  ASSERT_TRUE(asset_.MineEmpty(1).ok());

  // Authorize the redeem on the witness chain (valid evidence).
  auto deploy_ev =
      BuildTxEvidence(asset_.chain(), asset_.chain().genesis()->hash, sc_id);
  ASSERT_TRUE(deploy_ev.ok());
  auto call = alice_witness_.BuildCall(
      witness_.chain().StateAtHead(), scw_id, kAuthorizeRedeemFunction,
      Encode(EdgeEvidence{{*deploy_ev}}), 2, /*nonce=*/80);
  ASSERT_TRUE(call.ok());
  ASSERT_TRUE(witness_.MineBlock({*call}).ok());
  ASSERT_EQ(Scw(scw_id)->state(), WitnessState::kRedeemAuthorized);

  auto contract = asset_.chain().ContractAtHead(sc_id);
  ASSERT_TRUE(contract.ok());
  const auto* sc =
      dynamic_cast<const PermissionlessContract*>(contract->get());
  ASSERT_NE(sc, nullptr);

  std::vector<Payout> payouts;
  CallContext ctx;
  ctx.chain_id = 0;
  ctx.sender = kBob.public_key();
  ctx.payouts = &payouts;

  // Buried under only 1 block (< d): the redeem must be refused.
  ASSERT_TRUE(witness_.MineEmpty(1).ok());
  auto shallow = BuildReceiptEvidence(
      witness_.chain(), witness_.chain().genesis()->hash, call->Id());
  ASSERT_TRUE(shallow.ok());
  EXPECT_FALSE(sc->IsRedeemable(Encode(*shallow), ctx));

  // Buried under >= d blocks: the redeem goes through.
  ASSERT_TRUE(witness_.MineEmpty(d).ok());
  auto deep = BuildReceiptEvidence(
      witness_.chain(), witness_.chain().genesis()->hash, call->Id());
  ASSERT_TRUE(deep.ok());
  EXPECT_TRUE(sc->IsRedeemable(Encode(*deep), ctx));
  // The same (RDauth) receipt can never power a refund.
  EXPECT_FALSE(sc->IsRefundable(Encode(*deep), ctx));
}

TEST_F(EvidenceTest, PermissionlessRejectsForeignScwReceipt) {
  const uint32_t d = 1;
  auto scw_id = DeployWitnessContract(d);
  auto sc_id = DeployAssetContract(scw_id, d);
  ASSERT_TRUE(asset_.MineEmpty(1).ok());

  // A second, unrelated witness contract reaches RFauth; its receipt must
  // not refund OUR asset contract.
  auto other_scw = DeployWitnessContract(d);
  ASSERT_NE(other_scw, scw_id);
  auto refund_call = alice_witness_.BuildCall(witness_.chain().StateAtHead(),
                                              other_scw,
                                              kAuthorizeRefundFunction, {}, 2,
                                              /*nonce=*/90);
  ASSERT_TRUE(refund_call.ok());
  ASSERT_TRUE(witness_.MineTxToDepth(*refund_call, d).ok());

  auto contract = asset_.chain().ContractAtHead(sc_id);
  ASSERT_TRUE(contract.ok());
  const auto* sc =
      dynamic_cast<const PermissionlessContract*>(contract->get());
  std::vector<Payout> payouts;
  CallContext ctx;
  ctx.chain_id = 0;
  ctx.sender = kAlice.public_key();
  ctx.payouts = &payouts;
  auto foreign = BuildReceiptEvidence(
      witness_.chain(), witness_.chain().genesis()->hash, refund_call->Id());
  ASSERT_TRUE(foreign.ok());
  EXPECT_FALSE(sc->IsRefundable(Encode(*foreign), ctx));
}

}  // namespace
}  // namespace ac3::contracts
