#include "src/protocols/ac3wn_swap.h"

#include "src/common/logging.h"
#include "src/contracts/evidence_builder.h"

namespace ac3::protocols {

Ac3wnSwapEngine::Ac3wnSwapEngine(core::Environment* env,
                                 graph::Ac2tGraph graph,
                                 std::vector<Participant*> participants,
                                 chain::ChainId witness_chain,
                                 Ac3wnConfig config)
    : SwapEngineBase(env, std::move(graph), std::move(participants), config,
                     "AC3WN", contracts::kPermissionlessKind),
      witness_chain_(witness_chain),
      config_(config) {}

Status Ac3wnSwapEngine::OnStart() {
  // Step 1: all participants multisign (D, t) -> ms(D).
  AC3_ASSIGN_OR_RETURN(ms_, MultisignGraph());

  // The agreed shape of every asset contract, with a stable checkpoint of
  // its chain: this is what SCw's VerifyContracts later validates evidence
  // against (asset deployments happen strictly after this point, so the
  // checkpoint is an ancestor of every deployment block).
  for (const graph::Ac2tEdge& e : graph().edges()) {
    const chain::Blockchain* asset_chain = env()->blockchain(e.chain_id);
    EdgeRt rt;
    rt.edge = e;
    rt.spec.chain_id = e.chain_id;
    rt.spec.sender = participant(e.from)->pk();
    rt.spec.recipient = participant(e.to)->pk();
    rt.spec.amount = e.amount;
    rt.spec.min_evidence_depth = config_.witness_depth_d;
    rt.spec.asset_checkpoint =
        asset_chain->StableBlock(asset_chain->params().stable_depth)
            ->block.header;
    rt.spec.asset_difficulty_bits = asset_chain->params().difficulty_bits;
    edges_.push_back(std::move(rt));
  }

  // The witness chain is a wake source too (SCw confirmation, the buried
  // state change); edge chains are watched by the base. A witness chain
  // this world lacks fails Start() here.
  return WatchChain(witness_chain_);
}

void Ac3wnSwapEngine::TryDeployWitnessContract() {
  Participant* registrar = FirstLiveParticipant();
  if (registrar == nullptr || !ResendDue(scw_deploy_.last_sent)) return;

  if (!scw_deploy_.built()) {
    contracts::WitnessInit init;
    for (Participant* p : participants()) init.participants.push_back(p->pk());
    init.ms_encoded = Encode(ms_);
    for (const EdgeRt& rt : edges_) init.edges.push_back(rt.spec);

    const chain::Blockchain* witness = env()->blockchain(witness_chain_);
    auto tx = registrar->WalletFor(witness_chain_)
                  ->BuildDeploy(witness->StateAtHead(), contracts::kWitnessKind,
                                Encode(init), /*locked_value=*/0,
                                witness->params().deploy_fee,
                                static_cast<uint64_t>(env()->sim()->Now()));
    if (!tx.ok()) {
      AC3_WARN << registrar->name()
               << " cannot deploy SCw: " << tx.status().ToString();
      return;
    }
    scw_deploy_.tx = *tx;
    scw_deploy_.builder = registrar;
    scw_id_ = tx->Id();
  }
  // Re-gossiped by whoever is the first live participant now.
  GossipTx(&scw_deploy_, registrar, witness_chain_);
}

void Ac3wnSwapEngine::TrackWitnessDeployment() {
  const chain::Blockchain* witness = env()->blockchain(witness_chain_);
  if (!witness->TxConfirmedAtDepth(scw_id_, config_.confirm_depth)) return;
  scw_confirmed_ = true;
  scw_confirmed_at_ = env()->sim()->Now();
  mutable_report()->MarkPhase("scw_published", scw_confirmed_at_);
  // The patience clock starts now; guarantee a wake when it runs out.
  RequestWakeAt(scw_confirmed_at_ + config_.publish_patience);
  // kAtPrepare anchor: the registrar dies the moment SCw confirms. Unlike
  // Trent or the HTLC leader, it held no exclusive role — the remaining
  // participants publish, authorize, and settle without it.
  Participant* registrar = FirstLiveParticipant();
  if (registrar != nullptr) {
    MaybeCrashCoordinator(CoordinatorCrashPhase::kAtPrepare,
                          registrar->node());
  }
}

Bytes Ac3wnSwapEngine::ContractInit(EdgeState* edge) {
  // Algorithm 4 constructor arguments: conditioned on *this* SCw at depth
  // d, anchored at a stable witness-chain checkpoint (an ancestor of any
  // future state-change block).
  EdgeRt* rt = static_cast<EdgeRt*>(edge);
  const chain::Blockchain* witness = env()->blockchain(witness_chain_);
  rt->init.recipient = participant(rt->edge.to)->pk();
  rt->init.witness_chain_id = witness_chain_;
  rt->init.scw_id = scw_id_;
  rt->init.depth = config_.witness_depth_d;
  rt->init.witness_checkpoint =
      witness->StableBlock(witness->params().stable_depth)->block.header;
  rt->init.witness_difficulty_bits = witness->params().difficulty_bits;
  return Encode(rt->init);
}

void Ac3wnSwapEngine::TryAuthorize(crypto::CommitmentTag tag) {
  const bool redeem = tag == crypto::CommitmentTag::kRedeem;
  GossipedTx* call = redeem ? &authorize_redeem_ : &authorize_refund_;
  Participant* requester = FirstLiveParticipant();
  if (requester == nullptr || !ResendDue(call->last_sent)) return;
  // kAtCommit anchor: the requester dies as it is about to move SCw. The
  // next Step picks a new FirstLiveParticipant, which rebuilds the call
  // with its own funds — the nonblocking takeover the study contrasts with
  // Trent and the leader.
  if (MaybeCrashCoordinator(CoordinatorCrashPhase::kAtCommit,
                            requester->node())) {
    return;
  }

  if (call->builder != requester) {
    Bytes args;  // AuthorizeRefund takes none.
    if (redeem) {
      // Section 4.3 evidence for every edge: the headers from the
      // registered asset checkpoint through the deployment block, plus a
      // Merkle inclusion proof of the deploy transaction.
      std::vector<contracts::HeaderChainEvidence> evidence;
      evidence.reserve(edges_.size());
      for (const EdgeRt& rt : edges_) {
        const chain::Blockchain* asset_chain =
            env()->blockchain(rt.edge.chain_id);
        auto ev = contracts::BuildTxEvidence(
            *asset_chain, rt.spec.asset_checkpoint.Hash(), rt.contract_id);
        if (!ev.ok()) return;
        evidence.push_back(std::move(*ev));
      }
      args = Encode(contracts::EdgeEvidence{std::move(evidence)});
    }
    const char* function = redeem ? contracts::kAuthorizeRedeemFunction
                                  : contracts::kAuthorizeRefundFunction;
    const TimePoint now = env()->sim()->Now();
    const chain::Blockchain* witness = env()->blockchain(witness_chain_);
    auto tx = requester->WalletFor(witness_chain_)
                  ->BuildCall(witness->StateAtHead(), scw_id_, function, args,
                              witness->params().call_fee,
                              static_cast<uint64_t>(now) + (redeem ? 0 : 1));
    if (!tx.ok()) {
      AC3_WARN << "cannot build " << function << ": "
               << tx.status().ToString();
      return;
    }
    if (!call->built()) {
      mutable_report()->MarkPhase(redeem ? "authorize_redeem_submitted"
                                         : "authorize_refund_submitted",
                                  now);
    }
    call->tx = *tx;
    call->builder = requester;
  }
  GossipTx(call, requester, witness_chain_);
}

void Ac3wnSwapEngine::TrackDecision() {
  if (decision_tag().has_value()) return;
  const chain::Blockchain* witness = env()->blockchain(witness_chain_);

  struct Candidate {
    const char* function;
    crypto::CommitmentTag tag;
  };
  // Both transitions are scanned: under a fork one branch may carry RDauth
  // and another RFauth (Lemma 5.3); only canonical calls count, and the
  // depth-d requirement keeps transient winners from being acted on.
  for (const Candidate& c :
       {Candidate{contracts::kAuthorizeRedeemFunction,
                  crypto::CommitmentTag::kRedeem},
        Candidate{contracts::kAuthorizeRefundFunction,
                  crypto::CommitmentTag::kRefund}}) {
    auto call = witness->CallConfirmedAtDepth(scw_id_, c.function,
                                              config_.witness_depth_d);
    if (!call.has_value()) continue;
    decision_tx_id_ = call->entry->block.txs[call->index].Id();
    Decide(c.tag);
    mutable_report()->MarkPhase(c.tag == crypto::CommitmentTag::kRedeem
                                    ? "commit_decided_buried_d"
                                    : "abort_decided_buried_d",
                                env()->sim()->Now());
    return;
  }
}

Result<Bytes> Ac3wnSwapEngine::SettleArgs(const EdgeState& edge) const {
  const chain::Blockchain* witness = env()->blockchain(witness_chain_);
  AC3_ASSIGN_OR_RETURN(
      contracts::HeaderChainEvidence evidence,
      contracts::BuildReceiptEvidence(
          *witness,
          static_cast<const EdgeRt&>(edge).init.witness_checkpoint.Hash(),
          decision_tx_id_));
  return Encode(evidence);
}

void Ac3wnSwapEngine::Step() {
  if (!scw_confirmed_) {
    // Phase 1: SCw deployment.
    TryDeployWitnessContract();
    if (scw_deploy_.built()) TrackWitnessDeployment();
    if (!scw_confirmed_) return;
  }
  if (!decision_tag().has_value()) {
    // Phase 2: parallel deployments.
    if (PublishEdges()) {
      mutable_report()->MarkPhase("contracts_published", env()->sim()->Now());
    }
    // Phase 3: the state-change request — AuthorizeRedeem once every
    // contract is published; AuthorizeRefund on request or when a
    // participant declines past the patience window, so the published
    // contracts can be refunded.
    if (auto tag = ProposedVerdict(config_, scw_confirmed_at_)) {
      TryAuthorize(*tag);
    }
    TrackDecision();
    if (!decision_tag().has_value()) return;
  }
  // Phase 4: parallel settlement under the buried decision.
  for (EdgeRt& rt : edges_) {
    if (rt.settled) continue;
    const chain::Blockchain* asset_chain = env()->blockchain(rt.edge.chain_id);
    if (rt.deploy.built() && asset_chain->FindTx(rt.contract_id)) {
      TrySettle(&rt);
      TrackSettlement(&rt);
    }
  }
}

chain::Amount Ac3wnSwapEngine::ExtraFees() const {
  // Section 6.2: AC3WN additionally pays for SCw's deployment and one state
  // change — the (N+1)/N overhead.
  const chain::ChainParams& witness_params =
      env()->blockchain(witness_chain_)->params();
  chain::Amount fees = 0;
  if (scw_confirmed_) fees += witness_params.deploy_fee;
  if (decision_tag().has_value()) fees += witness_params.call_fee;
  return fees;
}

}  // namespace ac3::protocols
