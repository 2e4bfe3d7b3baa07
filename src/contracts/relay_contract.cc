#include "src/contracts/relay_contract.h"

#include "src/chain/transaction.h"

namespace ac3::contracts {

Result<ContractPtr> RelayContract::Create(const Bytes& payload,
                                          const DeployContext& ctx) {
  AC3_ASSIGN_OR_RETURN(RelayInit init, Decode<RelayInit>(payload));
  if (init.interesting_tx.IsZero()) {
    return Status::InvalidArgument("relay needs a transaction of interest");
  }
  auto contract = std::make_shared<RelayContract>();
  contract->init_ = std::move(init);
  contract->BindDeployment(ctx);
  return ContractPtr(contract);
}

Bytes RelayContract::StateDigest() const {
  return Bytes{static_cast<uint8_t>(state_)};
}

Result<CallOutcome> RelayContract::Call(const std::string& function,
                                        const Bytes& args,
                                        const CallContext& ctx) const {
  (void)ctx;
  if (function != kSubmitEvidenceFunction) {
    return Status::InvalidArgument("unknown function: " + function);
  }
  if (state_ != RelayState::kS1) {
    return Status::FailedPrecondition("relay already satisfied (S2)");
  }
  auto evidence = Decode<HeaderChainEvidence>(args);
  if (!evidence.ok()) {
    return Status::FailedPrecondition("malformed evidence");
  }
  Status verified = VerifyHeaderChainEvidence(
      init_.checkpoint, init_.validated_difficulty_bits, *evidence,
      init_.required_depth);
  if (!verified.ok()) {
    return Status::FailedPrecondition("evidence rejected: " +
                                      verified.ToString());
  }
  if (evidence->leaf_is_receipt) {
    return Status::FailedPrecondition("expected a transaction leaf");
  }
  auto tx = chain::Transaction::Decode(evidence->leaf);
  if (!tx.ok() || tx->Id() != init_.interesting_tx) {
    return Status::FailedPrecondition("evidence proves the wrong transaction");
  }

  auto next = std::make_shared<RelayContract>(*this);
  next->state_ = RelayState::kS2;
  // Roll the checkpoint forward to the newest header seen (a long-lived
  // relay keeps tracking the validated chain).
  next->init_.checkpoint = evidence->headers.back();
  return CallOutcome{next, "TX1 proven; S1 -> S2"};
}

}  // namespace ac3::contracts
