#include "src/protocols/ac3wn_swap.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/contracts/evidence_builder.h"
#include "src/graph/multisig_graph.h"

namespace ac3::protocols {

Ac3wnSwapEngine::Ac3wnSwapEngine(core::Environment* env,
                                 graph::Ac2tGraph graph,
                                 std::vector<Participant*> participants,
                                 chain::ChainId witness_chain,
                                 Ac3wnConfig config)
    : SwapEngineBase(
          env, std::move(graph), std::move(participants),
          WatchConfig{config.confirm_depth, config.resubmit_interval},
          "AC3WN"),
      witness_chain_(witness_chain),
      config_(config) {
  SetCoordinatorCrashPlan(config.coordinator_crash);
}

Status Ac3wnSwapEngine::OnStart() {
  if (env()->blockchain(witness_chain_) == nullptr) {
    return Status::InvalidArgument("unknown witness chain");
  }

  // Step 1: all participants multisign (D, t) -> ms(D).
  std::vector<crypto::KeyPair> keys;
  keys.reserve(participants().size());
  for (Participant* p : participants()) keys.push_back(p->key());
  AC3_ASSIGN_OR_RETURN(ms_, graph::SignGraph(graph(), keys));

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
  // state change); edge chains are watched by the base.
  WatchChain(witness_chain_);
  return Status::OK();
}

void Ac3wnSwapEngine::TryDeployWitnessContract() {
  Participant* registrar = FirstLiveParticipant();
  if (registrar == nullptr) return;
  const TimePoint now = env()->sim()->Now();

  if (!scw_deploy_built_) {
    contracts::WitnessInit init;
    for (Participant* p : participants()) init.participants.push_back(p->pk());
    init.ms_encoded = ms_.Encode();
    for (const EdgeRt& rt : edges_) init.edges.push_back(rt.spec);

    const chain::Blockchain* witness = env()->blockchain(witness_chain_);
    auto tx = registrar->WalletFor(witness_chain_)
                  ->BuildDeploy(witness->StateAtHead(), contracts::kWitnessKind,
                                init.Encode(), /*locked_value=*/0,
                                witness->params().deploy_fee,
                                static_cast<uint64_t>(now));
    if (!tx.ok()) {
      AC3_LOG(kWarn) << registrar->name()
                     << " cannot deploy SCw: " << tx.status().ToString();
      return;
    }
    scw_deploy_tx_ = *tx;
    scw_id_ = tx->Id();
    scw_deploy_built_ = true;
  }
  if (scw_last_submit_ < 0 ||
      now - scw_last_submit_ >= config_.resubmit_interval) {
    env()->SubmitTransaction(registrar->node(), witness_chain_,
                             scw_deploy_tx_);
    scw_last_submit_ = now;
    RequestResubmitWake();
  }
}

void Ac3wnSwapEngine::TrackWitnessDeployment() {
  const chain::Blockchain* witness = env()->blockchain(witness_chain_);
  if (!TxConfirmedAtDepth(witness, scw_id_, config_.confirm_depth)) return;
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

void Ac3wnSwapEngine::TryPublish(EdgeRt* rt) {
  Participant* sender = participant(rt->edge.from);
  if (sender->behavior().decline_publish) return;
  if (!sender->IsUp()) return;
  const TimePoint now = env()->sim()->Now();

  if (!rt->deploy_built) {
    // Algorithm 4 constructor arguments: conditioned on *this* SCw at depth
    // d, anchored at a stable witness-chain checkpoint (an ancestor of any
    // future state-change block).
    const chain::Blockchain* witness = env()->blockchain(witness_chain_);
    rt->init.recipient = participant(rt->edge.to)->pk();
    rt->init.witness_chain_id = witness_chain_;
    rt->init.scw_id = scw_id_;
    rt->init.depth = config_.witness_depth_d;
    rt->init.witness_checkpoint =
        witness->StableBlock(witness->params().stable_depth)->block.header;
    rt->init.witness_difficulty_bits = witness->params().difficulty_bits;

    const chain::Blockchain* asset_chain = env()->blockchain(rt->edge.chain_id);
    auto tx =
        sender->WalletFor(rt->edge.chain_id)
            ->BuildDeploy(asset_chain->StateAtHead(),
                          contracts::kPermissionlessKind, rt->init.Encode(),
                          rt->edge.amount, asset_chain->params().deploy_fee,
                          static_cast<uint64_t>(now) ^ rt->edge.to);
    if (!tx.ok()) {
      AC3_LOG(kWarn) << sender->name() << " cannot fund PermissionlessSC: "
                     << tx.status().ToString();
      return;
    }
    rt->deploy_tx = *tx;
    rt->contract_id = tx->Id();
    rt->deploy_built = true;
    rt->publish_submitted_at = now;
    rt->outcome = EdgeOutcome::kPublished;
  }
  GossipDeploy(rt, sender);
}

void Ac3wnSwapEngine::TryAuthorizeRedeem() {
  Participant* requester = FirstLiveParticipant();
  if (requester == nullptr) return;
  const TimePoint now = env()->sim()->Now();
  if (authorize_last_submit_ >= 0 &&
      now - authorize_last_submit_ < config_.resubmit_interval) {
    return;
  }
  // kAtCommit anchor: the requester dies as it is about to move SCw. The
  // next Step picks a new FirstLiveParticipant, which rebuilds the call
  // with its own funds (the builder-tracking discipline below) — the
  // nonblocking takeover the study contrasts with Trent and the leader.
  if (MaybeCrashCoordinator(CoordinatorCrashPhase::kAtCommit,
                            requester->node())) {
    return;
  }

  // Build the call once and re-gossip the SAME transaction afterwards:
  // rebuilding on every resubmission would re-reserve wallet funds that
  // the in-flight transaction already holds. A rebuild is only needed when
  // the original requester crashed (another participant takes over with
  // its own funds).
  if (!authorize_built_ || authorize_builder_ != requester) {
    // Section 4.3 evidence for every edge: the headers from the registered
    // asset checkpoint through the deployment block, plus a Merkle
    // inclusion proof of the deploy transaction.
    std::vector<contracts::HeaderChainEvidence> evidence;
    evidence.reserve(edges_.size());
    for (const EdgeRt& rt : edges_) {
      const chain::Blockchain* asset_chain =
          env()->blockchain(rt.edge.chain_id);
      auto ev = contracts::BuildTxEvidence(
          *asset_chain, rt.spec.asset_checkpoint.Hash(), rt.contract_id);
      if (!ev.ok()) {
        AC3_LOG(kDebug) << "evidence not ready: " << ev.status().ToString();
        return;
      }
      evidence.push_back(std::move(*ev));
    }

    const chain::Blockchain* witness = env()->blockchain(witness_chain_);
    auto tx = requester->WalletFor(witness_chain_)
                  ->BuildCall(witness->StateAtHead(), scw_id_,
                              contracts::kAuthorizeRedeemFunction,
                              contracts::EncodeEdgeEvidence(evidence),
                              witness->params().call_fee,
                              static_cast<uint64_t>(now));
    if (!tx.ok()) {
      AC3_LOG(kWarn) << "cannot build AuthorizeRedeem: "
                     << tx.status().ToString();
      return;
    }
    authorize_tx_ = *tx;
    authorize_builder_ = requester;
    if (!authorize_built_) {
      authorize_built_ = true;
      mutable_report()->MarkPhase("authorize_redeem_submitted", now);
    }
  }
  env()->SubmitTransaction(requester->node(), witness_chain_, authorize_tx_);
  authorize_last_submit_ = now;
  RequestResubmitWake();
}

void Ac3wnSwapEngine::TryAuthorizeRefund() {
  Participant* requester = FirstLiveParticipant();
  if (requester == nullptr) return;
  const TimePoint now = env()->sim()->Now();
  if (abort_last_submit_ >= 0 &&
      now - abort_last_submit_ < config_.resubmit_interval) {
    return;
  }
  // kAtCommit anchor on the abort path — same takeover argument as the
  // redeem path above.
  if (MaybeCrashCoordinator(CoordinatorCrashPhase::kAtCommit,
                            requester->node())) {
    return;
  }

  if (!abort_authorize_built_ || abort_builder_ != requester) {
    const chain::Blockchain* witness = env()->blockchain(witness_chain_);
    auto tx = requester->WalletFor(witness_chain_)
                  ->BuildCall(witness->StateAtHead(), scw_id_,
                              contracts::kAuthorizeRefundFunction, Bytes{},
                              witness->params().call_fee,
                              static_cast<uint64_t>(now) + 1);
    if (!tx.ok()) {
      AC3_LOG(kWarn) << "cannot build AuthorizeRefund: "
                     << tx.status().ToString();
      return;
    }
    abort_authorize_tx_ = *tx;
    abort_builder_ = requester;
    if (!abort_authorize_built_) {
      abort_authorize_built_ = true;
      mutable_report()->MarkPhase("authorize_refund_submitted", now);
    }
  }
  env()->SubmitTransaction(requester->node(), witness_chain_,
                           abort_authorize_tx_);
  abort_last_submit_ = now;
  RequestResubmitWake();
}

void Ac3wnSwapEngine::TrackDecision() {
  if (decided_state_.has_value()) return;
  const chain::Blockchain* witness = env()->blockchain(witness_chain_);

  struct Candidate {
    const char* function;
    contracts::WitnessState state;
  };
  // Both transitions are scanned: under a fork one branch may carry RDauth
  // and another RFauth (Lemma 5.3); FindCall only sees the canonical branch
  // and the depth-d requirement below keeps transient winners from being
  // acted on.
  for (const Candidate& c :
       {Candidate{contracts::kAuthorizeRedeemFunction,
                  contracts::WitnessState::kRedeemAuthorized},
        Candidate{contracts::kAuthorizeRefundFunction,
                  contracts::WitnessState::kRefundAuthorized}}) {
    auto call = witness->FindCall(scw_id_, c.function,
                                  /*require_success=*/true);
    if (!call.has_value()) continue;
    auto confirmations = witness->ConfirmationsOf(call->entry->hash);
    if (!confirmations.has_value() ||
        *confirmations < config_.witness_depth_d) {
      continue;
    }
    decided_state_ = c.state;
    decision_tx_id_ = call->entry->block.txs[call->index].Id();
    mutable_report()->decision_time = env()->sim()->Now();
    mutable_report()->MarkPhase(
        c.state == contracts::WitnessState::kRedeemAuthorized
            ? "commit_decided_buried_d"
            : "abort_decided_buried_d",
        env()->sim()->Now());
    return;
  }
}

void Ac3wnSwapEngine::TrySettle(EdgeRt* rt) {
  if (!decided_state_.has_value()) return;
  const TimePoint now = env()->sim()->Now();
  if (rt->settle_submitted && rt->last_settle_submit >= 0 &&
      now - rt->last_settle_submit < config_.resubmit_interval) {
    return;
  }

  const bool redeem =
      *decided_state_ == contracts::WitnessState::kRedeemAuthorized;
  Participant* actor =
      redeem ? participant(rt->edge.to) : participant(rt->edge.from);
  if (!actor->IsUp()) return;

  // Receipt evidence: the SCw state-change receipt, proven against the
  // witness checkpoint this very contract stores, buried >= d.
  const chain::Blockchain* witness = env()->blockchain(witness_chain_);
  auto evidence = contracts::BuildReceiptEvidence(
      *witness, rt->init.witness_checkpoint.Hash(), decision_tx_id_);
  if (!evidence.ok()) {
    AC3_LOG(kDebug) << "receipt evidence not ready: "
                    << evidence.status().ToString();
    return;
  }

  const chain::Blockchain* asset_chain = env()->blockchain(rt->edge.chain_id);
  if (!rt->settle_built) {
    auto tx = actor->WalletFor(rt->edge.chain_id)
                  ->BuildCall(asset_chain->StateAtHead(), rt->contract_id,
                              redeem ? contracts::kRedeemFunction
                                     : contracts::kRefundFunction,
                              evidence->Encode(),
                              asset_chain->params().call_fee,
                              static_cast<uint64_t>(now) ^ rt->edge.from);
    if (!tx.ok()) {
      AC3_LOG(kDebug) << "cannot build settle call: "
                      << tx.status().ToString();
      return;
    }
    rt->settle_tx = *tx;
    rt->settle_built = true;
  }
  env()->SubmitTransaction(actor->node(), rt->edge.chain_id, rt->settle_tx);
  rt->settle_submitted = true;
  rt->last_settle_submit = now;
  RequestResubmitWake();
}

bool Ac3wnSwapEngine::IsComplete() const {
  if (!decided_state_.has_value()) return false;
  for (const EdgeRt& rt : edges_) {
    if (!rt.deploy_built) continue;  // Never published: nothing locked.
    const chain::Blockchain* asset_chain = env()->blockchain(rt.edge.chain_id);
    const bool on_chain = asset_chain->FindTx(rt.contract_id).has_value();
    if (!on_chain &&
        *decided_state_ == contracts::WitnessState::kRefundAuthorized) {
      continue;  // Built but never landed; nothing to refund.
    }
    if (!rt.settled) return false;
  }
  return true;
}

void Ac3wnSwapEngine::Step() {
  const TimePoint now = env()->sim()->Now();

  if (!scw_confirmed_) {
    // Phase 1: SCw deployment.
    TryDeployWitnessContract();
    if (scw_deploy_built_) TrackWitnessDeployment();
    if (!scw_confirmed_) return;
  }
  if (!decided_state_.has_value()) {
    // Phase 2: parallel deployments.
    bool was_all_published = AllPublished();
    for (EdgeRt& rt : edges_) {
      if (!rt.publish_confirmed) {
        TryPublish(&rt);
        if (rt.deploy_built) TrackPublishConfirmation(&rt);
      }
    }
    if (!was_all_published && AllPublished()) {
      mutable_report()->MarkPhase("contracts_published", now);
    }
    // Phase 3: the state-change request.
    if (config_.request_abort) {
      TryAuthorizeRefund();
    } else if (AllPublished()) {
      TryAuthorizeRedeem();
    } else if (now - scw_confirmed_at_ >= config_.publish_patience) {
      // Step 6: a participant declines to publish — any participant moves
      // SCw to RFauth so the published contracts can be refunded.
      TryAuthorizeRefund();
    }
    TrackDecision();
    if (!decided_state_.has_value()) return;
  }
  // Phase 4: parallel settlement under the buried decision.
  for (EdgeRt& rt : edges_) {
    if (rt.settled) continue;
    const chain::Blockchain* asset_chain = env()->blockchain(rt.edge.chain_id);
    if (rt.deploy_built && asset_chain->FindTx(rt.contract_id)) {
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
  if (decided_state_.has_value()) fees += witness_params.call_fee;
  return fees;
}

void Ac3wnSwapEngine::FillVerdict(SwapReport* report) const {
  report->committed =
      decided_state_.has_value() &&
      *decided_state_ == contracts::WitnessState::kRedeemAuthorized;
  report->aborted =
      decided_state_.has_value() &&
      *decided_state_ == contracts::WitnessState::kRefundAuthorized;
}

}  // namespace ac3::protocols
