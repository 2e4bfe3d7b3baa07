#include "src/protocols/ac3tw_swap.h"

#include "src/contracts/centralized_contract.h"

namespace ac3::protocols {

Ac3twSwapEngine::Ac3twSwapEngine(core::Environment* env,
                                 graph::Ac2tGraph graph,
                                 std::vector<Participant*> participants,
                                 TrustedWitness* trent, Ac3twConfig config)
    : SwapEngineBase(env, std::move(graph), std::move(participants), config,
                     "AC3TW", contracts::kCentralizedKind),
      trent_(trent),
      config_(config) {}

Status Ac3twSwapEngine::OnStart() {
  // Step 1: all participants multisign (D, t).
  AC3_ASSIGN_OR_RETURN(ms_, MultisignGraph());
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
      .payload = proto::PreparePayload{Encode(ms_)}});
}

Bytes Ac3twSwapEngine::ContractInit(EdgeState* edge) {
  return Encode(contracts::CentralizedInit{participant(edge->edge.to)->pk(),
                                          ms_id_, trent_->pk()});
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
      if (!result.ok()) return;  // Trent declines.
      SendProtocolMessage(proto::Message{
          .swap_id = ms_id_,
          .sender = trent_->node(),
          .receiver = msg.sender,
          .payload = proto::DecisionPayload{
              0, static_cast<uint8_t>(result->tag),
              Encode(result->signature)}});
      return;
    }
    case proto::MessageKind::kDecision: {
      if (decision_tag().has_value()) return;
      const auto& d = std::get<proto::DecisionPayload>(msg.payload);
      Result<crypto::Signature> sig =
          Decode<crypto::Signature>(d.signature_encoded);
      if (!sig.ok()) return;
      // Trent's signature is the secret every contract settles with.
      const auto tag = static_cast<crypto::CommitmentTag>(d.tag);
      Decide(tag, Encode(*sig));
      mutable_report()->MarkPhase(tag == crypto::CommitmentTag::kRedeem
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

void Ac3twSwapEngine::Step() {
  if (!registered_) {
    TryRegister();
    return;
  }
  (void)PublishEdges();
  if (!decision_tag().has_value()) {
    // Steps 5/6: the redeem secret once every contract is published, else
    // the refund secret on request or when a participant declines (or
    // stays crashed) past the patience window.
    if (auto tag = ProposedVerdict(config_, registered_at_)) {
      RequestDecision(*tag);
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

}  // namespace ac3::protocols
