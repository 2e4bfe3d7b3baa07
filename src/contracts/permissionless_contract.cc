#include "src/contracts/permissionless_contract.h"

#include "src/chain/receipt.h"

namespace ac3::contracts {

Result<ContractPtr> PermissionlessContract::Create(const Bytes& payload,
                                                   const DeployContext& ctx) {
  AC3_ASSIGN_OR_RETURN(PermissionlessInit init,
                       Decode<PermissionlessInit>(payload));
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
  auto evidence = Decode<HeaderChainEvidence>(args);
  if (!evidence.ok()) return false;
  // Algorithm 4: evidence must show the SCw state update "at depth >= d".
  Status verified = VerifyHeaderChainEvidence(
      init_.witness_checkpoint, init_.witness_difficulty_bits, *evidence,
      init_.depth);
  if (!verified.ok()) return false;
  if (!evidence->leaf_is_receipt) return false;
  auto receipt = Decode<chain::Receipt>(evidence->leaf);
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
