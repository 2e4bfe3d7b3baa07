#include "src/contracts/htlc_contract.h"

namespace ac3::contracts {

Result<ContractPtr> HtlcContract::Create(const Bytes& payload,
                                         const DeployContext& ctx) {
  AC3_ASSIGN_OR_RETURN(HtlcInit init, Decode<HtlcInit>(payload));
  if (!init.recipient.IsValid()) {
    return Status::InvalidArgument("HTLC recipient key invalid");
  }
  if (ctx.value == 0) {
    return Status::InvalidArgument("HTLC must lock a positive asset");
  }
  auto contract = std::make_shared<HtlcContract>();
  contract->set_recipient(init.recipient);
  contract->hashlock_ = crypto::HashlockCommitment(init.hashlock);
  contract->timelock_ = init.timelock;
  contract->BindDeployment(ctx);
  return ContractPtr(contract);
}

bool HtlcContract::IsRedeemable(const Bytes& args,
                                const CallContext& ctx) const {
  (void)ctx;
  return hashlock_.VerifySecret(args);
}

bool HtlcContract::IsRefundable(const Bytes& args,
                                const CallContext& ctx) const {
  (void)args;
  return ctx.block_time >= timelock_;
}

}  // namespace ac3::contracts
