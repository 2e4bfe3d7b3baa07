#include "src/contracts/htlc_contract.h"

namespace ac3::contracts {

Bytes HtlcContract::MakeInitPayload(const crypto::PublicKey& recipient,
                                    const crypto::Hash256& hashlock,
                                    TimePoint timelock) {
  ByteWriter w;
  recipient.EncodeTo(&w);
  w.PutRaw(hashlock.bytes(), crypto::Hash256::kSize);
  w.PutI64(timelock);
  return w.Take();
}

Result<ContractPtr> HtlcContract::Create(const Bytes& payload,
                                         const DeployContext& ctx) {
  ByteReader r(payload);
  auto contract = std::make_shared<HtlcContract>();
  AC3_ASSIGN_OR_RETURN(crypto::PublicKey recipient,
                       crypto::PublicKey::Decode(&r));
  AC3_ASSIGN_OR_RETURN(Bytes lock_raw, r.GetRaw(crypto::Hash256::kSize));
  std::array<uint8_t, crypto::Hash256::kSize> arr{};
  std::copy(lock_raw.begin(), lock_raw.end(), arr.begin());
  AC3_ASSIGN_OR_RETURN(TimePoint timelock, r.GetI64());
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after HTLC init");
  }
  if (!recipient.IsValid()) {
    return Status::InvalidArgument("HTLC recipient key invalid");
  }
  if (ctx.value == 0) {
    return Status::InvalidArgument("HTLC must lock a positive asset");
  }
  contract->set_recipient(recipient);
  contract->hashlock_ = crypto::HashlockCommitment(crypto::Hash256(arr));
  contract->timelock_ = timelock;
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
