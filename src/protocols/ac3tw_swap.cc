#include "src/protocols/ac3tw_swap.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/contracts/atomic_swap_contract.h"
#include "src/contracts/centralized_contract.h"
#include "src/graph/multisig_graph.h"

namespace ac3::protocols {

Ac3twSwapEngine::Ac3twSwapEngine(core::Environment* env,
                                 graph::Ac2tGraph graph,
                                 std::vector<Participant*> participants,
                                 TrustedWitness* trent, Ac3twConfig config)
    : SwapEngineBase(
          env, std::move(graph), std::move(participants),
          WatchConfig{config.confirm_depth, config.resubmit_interval},
          "AC3TW"),
      trent_(trent),
      config_(config) {
  SetCoordinatorCrashPlan(config.coordinator_crash);
}

Status Ac3twSwapEngine::OnStart() {
  // Step 1: all participants multisign (D, t). Even a participant that will
  // later decline to publish signs here — agreeing on D is how the swap is
  // proposed; declining to fund it is the abort trigger.
  std::vector<crypto::KeyPair> keys;
  keys.reserve(participants().size());
  for (Participant* p : participants()) keys.push_back(p->key());
  AC3_ASSIGN_OR_RETURN(ms_, graph::SignGraph(graph(), keys));
  ms_id_ = ms_.Id();

  for (const graph::Ac2tEdge& e : graph().edges()) {
    EdgeRt rt;
    rt.edge = e;
    edges_.push_back(std::move(rt));
  }
  return Status::OK();
}

void Ac3twSwapEngine::TryRegister() {
  Participant* registrar = FirstLiveParticipant();
  if (registrar == nullptr) return;
  if (!PaceResend(&last_register_attempt_)) return;

  // Step 2: the registration envelope travels to Trent; his acknowledgement
  // travels back. Either leg can be lost to a crash (or, under the message
  // fault model, dropped outright) — PaceResend re-sends until the ack
  // lands.
  SendProtocolMessage(proto::Message{
      .swap_id = ms_id_,
      .sender = registrar->node(),
      .receiver = trent_->node(),
      .payload = proto::PreparePayload{ms_.Encode()}});
}

void Ac3twSwapEngine::TryPublish(EdgeRt* rt) {
  Participant* sender = participant(rt->edge.from);
  if (sender->behavior().decline_publish) return;
  if (!sender->IsUp()) return;
  const TimePoint now = env()->sim()->Now();

  if (!rt->deploy_built) {
    const chain::Blockchain* chain = env()->blockchain(rt->edge.chain_id);
    Bytes payload = contracts::CentralizedContract::MakeInitPayload(
        participant(rt->edge.to)->pk(), ms_id_, trent_->pk());
    auto tx = sender->WalletFor(rt->edge.chain_id)
                  ->BuildDeploy(chain->StateAtHead(), contracts::kCentralizedKind,
                                payload, rt->edge.amount,
                                chain->params().deploy_fee,
                                static_cast<uint64_t>(now) ^ rt->edge.to);
    if (!tx.ok()) {
      AC3_LOG(kWarn) << sender->name()
                     << " cannot fund CentralizedSC: " << tx.status().ToString();
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

void Ac3twSwapEngine::RequestDecision(crypto::CommitmentTag tag) {
  Participant* requester = FirstLiveParticipant();
  if (requester == nullptr) return;
  if (!PaceResend(&last_request_attempt_)) return;

  // kAtCommit anchor: Trent dies just as the first decision request is
  // sent — the request (and every retry) is dropped at delivery, so
  // neither secret is ever signed. The retry pacing stays armed so a late
  // recovery can still answer.
  MaybeCrashCoordinator(CoordinatorCrashPhase::kAtCommit, trent_->node());

  // Step 5 / 6: the request travels to Trent, who consults (and possibly
  // updates) his key/value store, and the value travels back as a
  // kDecision envelope.
  SendProtocolMessage(proto::Message{
      .swap_id = ms_id_,
      .sender = requester->node(),
      .receiver = trent_->node(),
      .payload = proto::RedeemNotifyPayload{static_cast<uint8_t>(tag)}});
}

void Ac3twSwapEngine::OnMessage(const proto::Message& msg) {
  switch (msg.kind()) {
    case proto::MessageKind::kPrepare: {
      // Trent's side of step 2. The ack is sent unconditionally — gossip
      // is at-least-once and a duplicate registration still deserves its
      // (possibly lost) acknowledgement.
      Status status = trent_->HandleRegister(ms_);
      const bool accepted =
          status.ok() || status.code() == StatusCode::kAlreadyExists;
      SendProtocolMessage(proto::Message{
          .swap_id = ms_id_,
          .sender = trent_->node(),
          .receiver = msg.sender,
          .payload = proto::AckPayload{0, 0, accepted}});
      return;
    }
    case proto::MessageKind::kAck: {
      const auto& ack = std::get<proto::AckPayload>(msg.payload);
      if (ack.accepted && !registered_) {
        registered_ = true;
        registered_at_ = env()->sim()->Now();
        mutable_report()->MarkPhase("registered_at_trent", registered_at_);
        // The patience clock starts now; guarantee a wake when it runs
        // out.
        RequestWakeAt(registered_at_ + config_.publish_patience);
        ScheduleStep();
        // kAtPrepare anchor: Trent dies the moment the swap is registered
        // — participants go on to lock funds into contracts whose only
        // decision point is gone.
        MaybeCrashCoordinator(CoordinatorCrashPhase::kAtPrepare,
                              trent_->node());
      }
      return;
    }
    case proto::MessageKind::kRedeemNotify: {
      // Trent's side of steps 5/6: consult (and possibly update) the
      // key/value store; reply only when a value exists.
      const auto& req = std::get<proto::RedeemNotifyPayload>(msg.payload);
      const auto tag = static_cast<crypto::CommitmentTag>(req.tag);
      Result<TrentDecision> result =
          tag == crypto::CommitmentTag::kRedeem
              ? trent_->HandleRedeemRequest(ms_id_)
              : trent_->HandleRefundRequest(ms_id_);
      if (!result.ok()) {
        AC3_LOG(kDebug) << "Trent declines: " << result.status().ToString();
        return;
      }
      SendProtocolMessage(proto::Message{
          .swap_id = ms_id_,
          .sender = trent_->node(),
          .receiver = msg.sender,
          .payload = proto::DecisionPayload{
              0, static_cast<uint8_t>(result->tag),
              result->signature.Encode()}});
      return;
    }
    case proto::MessageKind::kDecision: {
      if (decision_.has_value()) return;
      const auto& d = std::get<proto::DecisionPayload>(msg.payload);
      ByteReader reader(d.signature_encoded);
      Result<crypto::Signature> sig = crypto::Signature::Decode(&reader);
      if (!sig.ok() || !reader.AtEnd()) return;
      decision_ =
          TrentDecision{static_cast<crypto::CommitmentTag>(d.tag), *sig};
      mutable_report()->decision_time = env()->sim()->Now();
      mutable_report()->MarkPhase(
          decision_->tag == crypto::CommitmentTag::kRedeem
              ? "trent_signed_redeem"
              : "trent_signed_refund",
          env()->sim()->Now());
      ScheduleStep();
      return;
    }
    default:
      return;
  }
}

void Ac3twSwapEngine::TrySettle(EdgeRt* rt) {
  if (!decision_.has_value()) return;
  const TimePoint now = env()->sim()->Now();
  // A settle call may have been lost (crash mid-flight); re-gossip the
  // cached transaction after the resubmit interval.
  if (rt->settle_submitted && rt->last_settle_submit >= 0 &&
      now - rt->last_settle_submit < config_.resubmit_interval) {
    return;
  }
  const chain::Blockchain* chain = env()->blockchain(rt->edge.chain_id);
  const Bytes secret = decision_->signature.Encode();
  const bool redeem = decision_->tag == crypto::CommitmentTag::kRedeem;
  Participant* actor =
      redeem ? participant(rt->edge.to) : participant(rt->edge.from);
  if (!actor->IsUp()) return;

  // Build the call once and re-gossip the SAME transaction on retries;
  // rebuilding would re-reserve the actor's wallet funds.
  if (!rt->settle_built) {
    auto tx = actor->WalletFor(rt->edge.chain_id)
                  ->BuildCall(chain->StateAtHead(), rt->contract_id,
                              redeem ? contracts::kRedeemFunction
                                     : contracts::kRefundFunction,
                              secret, chain->params().call_fee,
                              static_cast<uint64_t>(now) ^ rt->edge.from);
    if (!tx.ok()) {
      AC3_LOG(kDebug) << "cannot build settle call: " << tx.status().ToString();
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

bool Ac3twSwapEngine::IsComplete() const {
  if (!decision_.has_value()) return false;
  for (const EdgeRt& rt : edges_) {
    if (!rt.deploy_built) continue;  // Never published: nothing to settle.
    // On the refund path, contracts whose deploy never confirmed on-chain
    // may still confirm later; wait for them too (they hold locked assets
    // the moment they land). Contracts that never reached a chain at all
    // cannot settle; give up on them once nothing is pending.
    const chain::Blockchain* chain = env()->blockchain(rt.edge.chain_id);
    const bool on_chain = chain->FindTx(rt.contract_id).has_value();
    if (!on_chain && decision_->tag == crypto::CommitmentTag::kRefund) {
      continue;
    }
    if (!rt.settled) return false;
  }
  return true;
}

void Ac3twSwapEngine::Step() {
  const TimePoint now = env()->sim()->Now();

  if (!registered_) {
    TryRegister();
    return;
  }
  for (EdgeRt& rt : edges_) {
    if (rt.settled) continue;
    if (!rt.publish_confirmed) {
      TryPublish(&rt);
      if (rt.deploy_built) TrackPublishConfirmation(&rt);
    }
  }
  if (!decision_.has_value()) {
    if (config_.request_abort) {
      RequestDecision(crypto::CommitmentTag::kRefund);
    } else if (AllPublished()) {
      RequestDecision(crypto::CommitmentTag::kRedeem);
    } else if (now - registered_at_ >= config_.publish_patience) {
      // Step 6: a participant declines (or stays crashed) — fall back to
      // the refund secret so everyone else recovers their assets.
      RequestDecision(crypto::CommitmentTag::kRefund);
    }
  } else {
    for (EdgeRt& rt : edges_) {
      if (rt.settled) continue;
      if (rt.publish_confirmed ||
          env()->blockchain(rt.edge.chain_id)->FindTx(rt.contract_id)) {
        TrySettle(&rt);
        TrackSettlement(&rt);
      }
    }
  }
}

void Ac3twSwapEngine::FillVerdict(SwapReport* report) const {
  report->committed =
      decision_.has_value() && decision_->tag == crypto::CommitmentTag::kRedeem;
  report->aborted =
      decision_.has_value() && decision_->tag == crypto::CommitmentTag::kRefund;
}

}  // namespace ac3::protocols
