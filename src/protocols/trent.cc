#include "src/protocols/trent.h"

#include "src/contracts/centralized_contract.h"

namespace ac3::protocols {

TrustedWitness::TrustedWitness(std::string name, uint64_t key_seed,
                               core::Environment* env, uint32_t confirm_depth)
    : name_(std::move(name)),
      key_(crypto::KeyPair::FromSeed(key_seed)),
      env_(env),
      node_(env->AddUserNode()),
      confirm_depth_(confirm_depth) {}

bool TrustedWitness::IsUp() const { return env_->network()->IsUp(node_); }

Status TrustedWitness::HandleRegister(const crypto::Multisignature& ms) {
  const crypto::Hash256 ms_id = ms.Id();
  if (store_.count(ms_id) > 0) {
    return Status::AlreadyExists("ms(D) already registered");
  }
  // The registered message must be a well-formed graph multisigned by all
  // of its participants — Trent refuses to witness anything else.
  auto graph = Decode<graph::Ac2tGraph>(ms.message());
  if (!graph.ok()) {
    return Status::InvalidArgument("registration does not carry a graph: " +
                                   graph.status().ToString());
  }
  AC3_RETURN_IF_ERROR(graph->Validate());
  if (!ms.VerifyAll(graph->participants())) {
    return Status::VerificationFailed(
        "ms(D) is not signed by all participants of D");
  }
  Entry entry;
  entry.ms = ms;
  entry.graph = std::move(*graph);
  store_.emplace(ms_id, std::move(entry));
  return Status::OK();
}

Status TrustedWitness::VerifyAllContractsDeployed(const Entry& entry) const {
  const crypto::Hash256 ms_id = entry.ms.Id();
  for (size_t i = 0; i < entry.graph.edges().size(); ++i) {
    const graph::Ac2tEdge& e = entry.graph.edges()[i];
    const std::string tag = "edge " + std::to_string(i) + ": ";
    const chain::Blockchain* chain = env_->blockchain(e.chain_id);
    if (chain == nullptr) {
      return Status::NotFound(tag + "unknown blockchain");
    }
    const crypto::PublicKey& sender = entry.graph.participants()[e.from];
    const crypto::PublicKey& recipient = entry.graph.participants()[e.to];

    // Scan the canonical head state for the matching CentralizedSC.
    bool found = false;
    const chain::LedgerState head_state = chain->StateAtHead();
    for (const auto& [id, contract] : head_state.contracts) {
      const auto* sc =
          dynamic_cast<const contracts::CentralizedContract*>(contract.get());
      if (sc == nullptr) continue;
      if (sc->ms_id() != ms_id || sc->trent() != pk()) continue;
      if (sc->sender() != sender || sc->recipient() != recipient) continue;
      if (sc->locked_value() != e.amount) continue;
      if (sc->state() != contracts::SwapState::kPublished) continue;
      // "Deployed" means publicly recognized: buried at confirm depth.
      if (!chain->TxConfirmedAtDepth(id, confirm_depth_)) continue;
      found = true;
      break;
    }
    if (!found) {
      return Status::FailedPrecondition(
          tag + "no confirmed CentralizedSC bound to (ms(D), PK_T)");
    }
  }
  return Status::OK();
}

TrentDecision TrustedWitness::Decide(Entry* entry, crypto::CommitmentTag tag) {
  TrentDecision decision;
  decision.tag = tag;
  decision.signature =
      key_.Sign(crypto::SignatureCommitmentMessage(entry->ms.Id(), tag));
  entry->value = decision;
  return decision;
}

Result<TrentDecision> TrustedWitness::HandleRedeemRequest(
    const crypto::Hash256& ms_id) {
  auto it = store_.find(ms_id);
  if (it == store_.end()) {
    return Status::NotFound("ms(D) is not registered");
  }
  Entry& entry = it->second;
  // "Trent responds to redemption and refund requests of ms(D) with the
  //  value corresponding to ms(D)" — once decided, the decision is final.
  if (entry.value.has_value()) return *entry.value;
  AC3_RETURN_IF_ERROR(VerifyAllContractsDeployed(entry));
  return Decide(&entry, crypto::CommitmentTag::kRedeem);
}

Result<TrentDecision> TrustedWitness::HandleRefundRequest(
    const crypto::Hash256& ms_id) {
  auto it = store_.find(ms_id);
  if (it == store_.end()) {
    return Status::NotFound("ms(D) is not registered");
  }
  Entry& entry = it->second;
  if (entry.value.has_value()) return *entry.value;
  return Decide(&entry, crypto::CommitmentTag::kRefund);
}

std::optional<TrentDecision> TrustedWitness::Lookup(
    const crypto::Hash256& ms_id) const {
  auto it = store_.find(ms_id);
  if (it == store_.end()) return std::nullopt;
  return it->second.value;
}

}  // namespace ac3::protocols
