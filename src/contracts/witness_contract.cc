#include "src/contracts/witness_contract.h"

#include "src/contracts/permissionless_contract.h"

namespace ac3::contracts {

Result<ContractPtr> WitnessContract::Create(const Bytes& payload,
                                            const DeployContext& ctx) {
  AC3_ASSIGN_OR_RETURN(WitnessInit init, Decode<WitnessInit>(payload));
  if (init.participants.empty()) {
    return Status::InvalidArgument("SCw needs participants");
  }
  if (init.edges.empty()) {
    return Status::InvalidArgument("SCw needs at least one edge");
  }
  // Registration check: ms(D) must carry a valid signature from every
  // participant — the witnesses accept only graphs everyone agreed on.
  AC3_ASSIGN_OR_RETURN(crypto::Multisignature ms,
                       Decode<crypto::Multisignature>(init.ms_encoded));
  if (!ms.VerifyAll(init.participants)) {
    return Status::VerificationFailed(
        "ms(D) is not signed by all participants");
  }
  auto contract = std::make_shared<WitnessContract>();
  contract->init_ = std::move(init);
  contract->BindDeployment(ctx);
  return ContractPtr(contract);
}

Bytes WitnessContract::StateDigest() const {
  return WitnessStateDigest(state_);
}

crypto::Hash256 WitnessContract::ms_id() const {
  return crypto::Hash256::Of(init_.ms_encoded);
}

bool WitnessContract::IsParticipant(const crypto::PublicKey& key) const {
  for (const crypto::PublicKey& pk : init_.participants) {
    if (pk == key) return true;
  }
  return false;
}

Status WitnessContract::VerifyEdge(size_t i,
                                   const HeaderChainEvidence& evidence) const {
  const EdgeSpec& spec = init_.edges[i];
  const std::string tag = "edge " + std::to_string(i) + ": ";

  // Deployment evidence is anchored at the edge chain's checkpoint. Depth 0
  // suffices here: the *decision* (SCw's own state change) is what gets
  // buried under d blocks.
  AC3_RETURN_IF_ERROR(VerifyHeaderChainEvidence(
      spec.asset_checkpoint, spec.asset_difficulty_bits, evidence,
      /*min_confirmations=*/0));
  if (evidence.leaf_is_receipt) {
    return Status::VerificationFailed(tag + "expected a deploy transaction");
  }
  AC3_ASSIGN_OR_RETURN(chain::Transaction deploy_tx,
                       chain::Transaction::Decode(evidence.leaf));
  if (deploy_tx.type() != chain::TxType::kDeploy) {
    return Status::VerificationFailed(tag + "leaf is not a deployment");
  }
  if (deploy_tx.chain_id() != spec.chain_id) {
    return Status::VerificationFailed(tag + "deployed on the wrong chain");
  }
  if (deploy_tx.contract_kind() != kPermissionlessKind) {
    return Status::VerificationFailed(tag + "wrong contract kind");
  }
  if (deploy_tx.signer() != spec.sender) {
    return Status::VerificationFailed(tag + "deployed by the wrong sender");
  }
  if (deploy_tx.contract_value() != spec.amount) {
    return Status::VerificationFailed(tag + "locks the wrong asset value");
  }
  AC3_ASSIGN_OR_RETURN(PermissionlessInit sc_init,
                       Decode<PermissionlessInit>(deploy_tx.payload()));
  if (sc_init.recipient != spec.recipient) {
    return Status::VerificationFailed(tag + "wrong recipient");
  }
  // The redemption/refund of the contract must be conditioned on *this*
  // SCw in *this* witness chain, at an agreed minimum depth.
  if (sc_init.witness_chain_id != chain_id()) {
    return Status::VerificationFailed(tag +
                                      "conditioned on another witness chain");
  }
  if (sc_init.scw_id != id()) {
    return Status::VerificationFailed(tag + "conditioned on another SCw");
  }
  if (sc_init.depth < spec.min_evidence_depth) {
    return Status::VerificationFailed(tag + "evidence depth below agreement");
  }
  return Status::OK();
}

Status WitnessContract::VerifyContracts(
    const std::vector<HeaderChainEvidence>& evidence) const {
  if (evidence.size() != init_.edges.size()) {
    return Status::VerificationFailed(
        "need evidence for every edge of the AC2T");
  }
  for (size_t i = 0; i < evidence.size(); ++i) {
    AC3_RETURN_IF_ERROR(VerifyEdge(i, evidence[i]));
  }
  return Status::OK();
}

Result<CallOutcome> WitnessContract::Call(const std::string& function,
                                          const Bytes& args,
                                          const CallContext& ctx) const {
  if (!IsParticipant(ctx.sender)) {
    return Status::FailedPrecondition(
        "state change requests must come from an AC2T participant");
  }

  if (function == kAuthorizeRedeemFunction) {
    // requires(state == P and VerifyContracts(e)) — Algorithm 3 line 11.
    if (state_ != WitnessState::kPublished) {
      return Status::FailedPrecondition(
          std::string("AuthorizeRedeem requires P, state is ") +
          WitnessStateName(state_));
    }
    auto evidence = Decode<EdgeEvidence>(args);
    if (!evidence.ok()) {
      return Status::FailedPrecondition("malformed evidence: " +
                                        evidence.status().ToString());
    }
    Status verified = VerifyContracts(evidence->per_edge);
    if (!verified.ok()) {
      return Status::FailedPrecondition("VerifyContracts failed: " +
                                        verified.ToString());
    }
    auto next = std::make_shared<WitnessContract>(*this);
    next->state_ = WitnessState::kRedeemAuthorized;
    return CallOutcome{next, "commit: RDauth"};
  }

  if (function == kAuthorizeRefundFunction) {
    // requires(state == P) — Algorithm 3 line 15.
    if (state_ != WitnessState::kPublished) {
      return Status::FailedPrecondition(
          std::string("AuthorizeRefund requires P, state is ") +
          WitnessStateName(state_));
    }
    auto next = std::make_shared<WitnessContract>(*this);
    next->state_ = WitnessState::kRefundAuthorized;
    return CallOutcome{next, "abort: RFauth"};
  }

  return Status::InvalidArgument("unknown function: " + function);
}

}  // namespace ac3::contracts
