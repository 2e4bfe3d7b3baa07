#include "src/contracts/centralized_contract.h"

namespace ac3::contracts {

Result<ContractPtr> CentralizedContract::Create(const Bytes& payload,
                                                const DeployContext& ctx) {
  AC3_ASSIGN_OR_RETURN(CentralizedInit init, Decode<CentralizedInit>(payload));
  if (!init.recipient.IsValid() || !init.trent.IsValid()) {
    return Status::InvalidArgument("CentralizedSC keys invalid");
  }
  if (ctx.value == 0) {
    return Status::InvalidArgument("CentralizedSC must lock a positive asset");
  }
  auto contract = std::make_shared<CentralizedContract>();
  contract->set_recipient(init.recipient);
  // Algorithm 2 line 2: this.rd = this.rf = (ms(D), PK_T) — same pair, two
  // mutually exclusive tags.
  contract->redeem_ = crypto::SignatureCommitment(
      init.ms_id, init.trent, crypto::CommitmentTag::kRedeem);
  contract->refund_ = crypto::SignatureCommitment(
      init.ms_id, init.trent, crypto::CommitmentTag::kRefund);
  contract->BindDeployment(ctx);
  return ContractPtr(contract);
}

bool CentralizedContract::VerifySecret(
    const crypto::SignatureCommitment& commitment, const Bytes& args) {
  auto signature = Decode<crypto::Signature>(args);
  return signature.ok() && commitment.VerifySecret(*signature);
}

bool CentralizedContract::IsRedeemable(const Bytes& args,
                                       const CallContext& ctx) const {
  (void)ctx;
  return VerifySecret(redeem_, args);
}

bool CentralizedContract::IsRefundable(const Bytes& args,
                                       const CallContext& ctx) const {
  (void)ctx;
  return VerifySecret(refund_, args);
}

}  // namespace ac3::contracts
