#include "src/contracts/centralized_contract.h"

namespace ac3::contracts {

Bytes CentralizedContract::MakeInitPayload(const crypto::PublicKey& recipient,
                                           const crypto::Hash256& ms_id,
                                           const crypto::PublicKey& trent) {
  ByteWriter w;
  recipient.EncodeTo(&w);
  w.PutRaw(ms_id.bytes(), crypto::Hash256::kSize);
  trent.EncodeTo(&w);
  return w.Take();
}

Result<ContractPtr> CentralizedContract::Create(const Bytes& payload,
                                                const DeployContext& ctx) {
  ByteReader r(payload);
  auto contract = std::make_shared<CentralizedContract>();
  AC3_ASSIGN_OR_RETURN(crypto::PublicKey recipient,
                       crypto::PublicKey::Decode(&r));
  AC3_ASSIGN_OR_RETURN(Bytes ms_raw, r.GetRaw(crypto::Hash256::kSize));
  std::array<uint8_t, crypto::Hash256::kSize> arr{};
  std::copy(ms_raw.begin(), ms_raw.end(), arr.begin());
  crypto::Hash256 ms_id(arr);
  AC3_ASSIGN_OR_RETURN(crypto::PublicKey trent, crypto::PublicKey::Decode(&r));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after CentralizedSC init");
  }
  if (!recipient.IsValid() || !trent.IsValid()) {
    return Status::InvalidArgument("CentralizedSC keys invalid");
  }
  if (ctx.value == 0) {
    return Status::InvalidArgument("CentralizedSC must lock a positive asset");
  }
  contract->set_recipient(recipient);
  // Algorithm 2 line 2: this.rd = this.rf = (ms(D), PK_T) — same pair, two
  // mutually exclusive tags.
  contract->redeem_ = crypto::SignatureCommitment(
      ms_id, trent, crypto::CommitmentTag::kRedeem);
  contract->refund_ = crypto::SignatureCommitment(
      ms_id, trent, crypto::CommitmentTag::kRefund);
  contract->BindDeployment(ctx);
  return ContractPtr(contract);
}

bool CentralizedContract::VerifySecret(
    const crypto::SignatureCommitment& commitment, const Bytes& args) {
  ByteReader r(args);
  auto signature = crypto::Signature::Decode(&r);
  if (!signature.ok() || !r.AtEnd()) return false;
  return commitment.VerifySecret(*signature);
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
