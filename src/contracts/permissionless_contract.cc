#include "src/contracts/permissionless_contract.h"

#include "src/chain/receipt.h"

namespace ac3::contracts {

Bytes PermissionlessInit::Encode() const {
  ByteWriter w;
  recipient.EncodeTo(&w);
  w.PutU32(witness_chain_id);
  w.PutRaw(scw_id.bytes(), crypto::Hash256::kSize);
  w.PutU32(depth);
  w.PutBytes(witness_checkpoint.Encode());
  w.PutU32(witness_difficulty_bits);
  return w.Take();
}

Result<PermissionlessInit> PermissionlessInit::Decode(const Bytes& payload) {
  ByteReader r(payload);
  PermissionlessInit init;
  AC3_ASSIGN_OR_RETURN(init.recipient, crypto::PublicKey::Decode(&r));
  AC3_ASSIGN_OR_RETURN(init.witness_chain_id, r.GetU32());
  AC3_ASSIGN_OR_RETURN(Bytes scw_raw, r.GetRaw(crypto::Hash256::kSize));
  std::array<uint8_t, crypto::Hash256::kSize> arr{};
  std::copy(scw_raw.begin(), scw_raw.end(), arr.begin());
  init.scw_id = crypto::Hash256(arr);
  AC3_ASSIGN_OR_RETURN(init.depth, r.GetU32());
  AC3_ASSIGN_OR_RETURN(Bytes checkpoint_bytes, r.GetBytes());
  ByteReader cr(checkpoint_bytes);
  AC3_ASSIGN_OR_RETURN(init.witness_checkpoint,
                       chain::BlockHeader::Decode(&cr));
  if (!cr.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after witness checkpoint");
  }
  AC3_ASSIGN_OR_RETURN(init.witness_difficulty_bits, r.GetU32());
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after permissionless init");
  }
  return init;
}

Result<ContractPtr> PermissionlessContract::Create(const Bytes& payload,
                                                   const DeployContext& ctx) {
  AC3_ASSIGN_OR_RETURN(PermissionlessInit init,
                       PermissionlessInit::Decode(payload));
  if (!init.recipient.IsValid()) {
    return Status::InvalidArgument("PermissionlessSC recipient invalid");
  }
  if (init.scw_id.IsZero()) {
    return Status::InvalidArgument("PermissionlessSC needs the SCw id");
  }
  if (init.witness_checkpoint.chain_id != init.witness_chain_id) {
    return Status::InvalidArgument(
        "witness checkpoint belongs to another chain");
  }
  if (ctx.value == 0) {
    return Status::InvalidArgument(
        "PermissionlessSC must lock a positive asset");
  }
  auto contract = std::make_shared<PermissionlessContract>();
  contract->set_recipient(init.recipient);
  contract->init_ = std::move(init);
  contract->BindDeployment(ctx);
  return ContractPtr(contract);
}

bool PermissionlessContract::WitnessStateProven(const Bytes& args,
                                                WitnessState expected) const {
  auto evidence = HeaderChainEvidence::Decode(args);
  if (!evidence.ok()) return false;
  // Algorithm 4: evidence must show the SCw state update "at depth >= d".
  Status verified = VerifyHeaderChainEvidence(
      init_.witness_checkpoint, init_.witness_difficulty_bits, *evidence,
      init_.depth);
  if (!verified.ok()) return false;
  if (!evidence->leaf_is_receipt) return false;
  auto receipt = chain::Receipt::Decode(evidence->leaf);
  if (!receipt.ok()) return false;
  return receipt->success && receipt->contract_id == init_.scw_id &&
         receipt->state_digest == WitnessStateDigest(expected);
}

bool PermissionlessContract::IsRedeemable(const Bytes& args,
                                          const CallContext& ctx) const {
  (void)ctx;
  return WitnessStateProven(args, WitnessState::kRedeemAuthorized);
}

bool PermissionlessContract::IsRefundable(const Bytes& args,
                                          const CallContext& ctx) const {
  (void)ctx;
  return WitnessStateProven(args, WitnessState::kRefundAuthorized);
}

}  // namespace ac3::contracts
