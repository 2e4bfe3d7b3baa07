#include "src/protocols/quorum_commit.h"

#include <string>

#include "src/contracts/centralized_contract.h"

namespace ac3::protocols {

QuorumCommitEngine::QuorumCommitEngine(core::Environment* env,
                                       graph::Ac2tGraph graph,
                                       std::vector<Participant*> participants,
                                       QuorumConfig config)
    : SwapEngineBase(env, std::move(graph), std::move(participants), config,
                     "QuorumCommit", contracts::kCentralizedKind),
      config_(config) {}

uint32_t QuorumCommitEngine::VertexCount() const {
  return graph().participant_count();
}

uint32_t QuorumCommitEngine::CoordinatorOf(uint64_t epoch) const {
  return static_cast<uint32_t>(epoch % VertexCount());
}

int QuorumCommitEngine::quorum() const {
  return static_cast<int>(VertexCount()) / 2 + 1;
}

Status QuorumCommitEngine::OnStart() {
  // Every participant multisigns (D, t) — the swap proposal.
  AC3_ASSIGN_OR_RETURN(ms_, MultisignGraph());
  ms_id_ = ms_.Id();

  // The shared quorum decision key, deterministically derived from ms(D)
  // so every participant reconstructs the same key at setup time (stands
  // in for a DKG-established threshold key — see the file comment).
  quorum_key_ = crypto::KeyPair::FromSeed(ms_id_.Prefix64() ^
                                          0x71756f72756d6b65ull);

  for (const graph::Ac2tEdge& e : graph().edges()) {
    EdgeRt rt;
    rt.edge = e;
    edges_.push_back(std::move(rt));
  }
  members_.assign(VertexCount(), MemberState{});

  // Guarantee a wake when the publish patience runs out, so the abort
  // verdict is driven even if every chain has gone quiet.
  RequestWakeAt(start_time() + config_.publish_patience);
  return Status::OK();
}

Bytes QuorumCommitEngine::ContractInit(EdgeState* edge) {
  // The contract's decision commitment is (ms(D), quorum pk): redeem and
  // refund secrets are quorum-key signatures over (ms(D), RD) / (ms(D),
  // RF).
  return Encode(contracts::CentralizedInit{participant(edge->edge.to)->pk(),
                                          ms_id_, quorum_key_->public_key()});
}

Participant* QuorumCommitEngine::FirstLiveKnower(uint32_t* vertex_out) const {
  for (uint32_t v = 0; v < VertexCount(); ++v) {
    if (members_[v].knows_decision && participant(v)->IsUp()) {
      if (vertex_out != nullptr) *vertex_out = v;
      return participant(v);
    }
  }
  return nullptr;
}

bool QuorumCommitEngine::DecisionKnownToLiveMember() const {
  return FirstLiveKnower(nullptr) != nullptr;
}

bool QuorumCommitEngine::ApplyPreCommit(uint32_t v, uint64_t epoch,
                                        crypto::CommitmentTag tag) {
  MemberState& m = members_[v];
  if (epoch < m.epoch) return false;  // Stale epoch: fenced off.
  if (m.phase == MemberPhase::kDecided) {
    // Terminal; support the round only when it matches the decision.
    return m.tag == tag;
  }
  m.epoch = epoch;
  m.phase = MemberPhase::kPreCommitted;
  m.tag = tag;
  return true;
}

void QuorumCommitEngine::BroadcastStateReq(uint32_t coordinator) {
  if (!PaceResend(&last_broadcast_)) return;
  for (uint32_t v = 0; v < VertexCount(); ++v) {
    if (v == coordinator || state_replies_.count(v) > 0) continue;
    SendProtocolMessage(proto::Message{
        .swap_id = ms_id_,
        .epoch = epoch_,
        .sender = participant(coordinator)->node(),
        .receiver = participant(v)->node(),
        .payload = proto::StateReqPayload{v, coordinator}});
  }
}

void QuorumCommitEngine::BroadcastPreCommit(uint32_t coordinator) {
  if (!PaceResend(&last_broadcast_)) return;
  for (uint32_t v = 0; v < VertexCount(); ++v) {
    if (v == coordinator || acks_.count(v) > 0) continue;
    SendProtocolMessage(proto::Message{
        .swap_id = ms_id_,
        .epoch = epoch_,
        .sender = participant(coordinator)->node(),
        .receiver = participant(v)->node(),
        .payload =
            proto::PreCommitPayload{v, static_cast<uint8_t>(round_tag_)}});
  }
}

void QuorumCommitEngine::BroadcastDecision(uint32_t sender) {
  if (!PaceResend(&last_broadcast_)) return;
  for (uint32_t v = 0; v < VertexCount(); ++v) {
    if (v == sender || members_[v].knows_decision) continue;
    SendProtocolMessage(proto::Message{
        .swap_id = ms_id_,
        .epoch = epoch_,
        .sender = participant(sender)->node(),
        .receiver = participant(v)->node(),
        .payload = proto::DecisionPayload{
            v, static_cast<uint8_t>(*decision_tag()), decision_secret()}});
  }
}

void QuorumCommitEngine::OnMessage(const proto::Message& msg) {
  switch (msg.kind()) {
    case proto::MessageKind::kStateReq: {
      // Delivered at member v (dropped if v is down): reply with v's
      // recorded round state, under the requesting round's epoch so the
      // reply is fenced if the takeover has moved on by the time it lands.
      const auto& req = std::get<proto::StateReqPayload>(msg.payload);
      const MemberState& m = members_[req.vertex];
      SendProtocolMessage(proto::Message{
          .swap_id = ms_id_,
          .epoch = msg.epoch,
          .sender = msg.receiver,
          .receiver = msg.sender,
          .payload = proto::StateReplyPayload{
              req.vertex, m.epoch, static_cast<uint8_t>(m.phase),
              static_cast<uint8_t>(m.tag), m.knows_decision}});
      return;
    }
    case proto::MessageKind::kStateReply: {
      if (msg.epoch != epoch_) return;  // Fenced: takeover moved on.
      const auto& rep = std::get<proto::StateReplyPayload>(msg.payload);
      state_replies_.emplace(
          rep.vertex,
          MemberState{rep.recorded_epoch, static_cast<MemberPhase>(rep.phase),
                      static_cast<crypto::CommitmentTag>(rep.tag),
                      rep.knows_decision});
      ScheduleStep();
      return;
    }
    case proto::MessageKind::kPreCommit: {
      const auto& pc = std::get<proto::PreCommitPayload>(msg.payload);
      if (!ApplyPreCommit(pc.vertex, msg.epoch,
                          static_cast<crypto::CommitmentTag>(pc.tag))) {
        return;
      }
      SendProtocolMessage(proto::Message{
          .swap_id = ms_id_,
          .epoch = msg.epoch,
          .sender = msg.receiver,
          .receiver = msg.sender,
          .payload = proto::AckPayload{pc.vertex, pc.tag, true}});
      return;
    }
    case proto::MessageKind::kAck: {
      const auto& ack = std::get<proto::AckPayload>(msg.payload);
      if (msg.epoch != epoch_ ||
          static_cast<crypto::CommitmentTag>(ack.tag) != round_tag_ ||
          !precommit_active_) {
        return;  // Stale acknowledgement.
      }
      acks_.insert(ack.vertex);
      ScheduleStep();
      return;
    }
    case proto::MessageKind::kDecision: {
      const auto& d = std::get<proto::DecisionPayload>(msg.payload);
      MemberState& m = members_[d.vertex];
      m.knows_decision = true;
      m.phase = MemberPhase::kDecided;
      m.tag = static_cast<crypto::CommitmentTag>(d.tag);
      ScheduleStep();
      return;
    }
    default:
      return;
  }
}

void QuorumCommitEngine::SignDecision(uint32_t coordinator, TimePoint now) {
  if (!decision_tag().has_value()) {
    // The secret is quorum_key.Sign((ms(D), tag)).
    Decide(round_tag_,
           Encode(quorum_key_->Sign(
               crypto::SignatureCommitmentMessage(ms_id_, round_tag_))));
    mutable_report()->MarkPhase(
        round_tag_ == crypto::CommitmentTag::kRedeem
            ? "quorum_commit_decided"
            : "quorum_abort_decided",
        now);
  }
  MemberState& m = members_[coordinator];
  m.knows_decision = true;
  m.phase = MemberPhase::kDecided;
  m.tag = *decision_tag();
}

void QuorumCommitEngine::StartEpoch(uint64_t epoch, TimePoint now) {
  epoch_ = epoch;
  state_replies_.clear();
  acks_.clear();
  precommit_active_ = false;
  recovery_resolved_ = false;
  forced_tag_.reset();
  coordinator_down_since_ = -1;
  last_broadcast_ = -1;
  mutable_report()->MarkPhase("epoch_" + std::to_string(epoch) + "_takeover",
                              now);
  ScheduleStep();
}

void QuorumCommitEngine::DriveCoordinator(TimePoint now) {
  const uint32_t c = CoordinatorOf(epoch_);
  Participant* coordinator = participant(c);
  if (!coordinator->IsUp()) return;

  if (members_[c].knows_decision) {
    BroadcastDecision(c);
    return;
  }

  // Recovery epochs first collect a quorum of member states and apply the
  // termination rule; epoch 0 needs neither (everyone starts kWaiting).
  if (epoch_ > 0 && !recovery_resolved_) {
    state_replies_.insert_or_assign(c, members_[c]);
    if (static_cast<int>(state_replies_.size()) < quorum()) {
      BroadcastStateReq(c);
      return;
    }
    // Termination rule over the collected quorum: a known decision wins;
    // else the highest-epoch pre-committed verdict is resumed (quorum
    // intersection keeps this consistent with any signed decision); else
    // the verdict is chosen fresh from chain observation below.
    uint64_t best_epoch = 0;
    for (const auto& [v, info] : state_replies_) {
      if (info.knows_decision) {
        // A decision exists iff any member holds the secret (engine-global
        // by construction), so adopting it here is the re-broadcast path.
        SignDecision(c, now);
        BroadcastDecision(c);
        return;
      }
      if (info.phase == MemberPhase::kPreCommitted &&
          (!forced_tag_.has_value() || info.epoch >= best_epoch)) {
        best_epoch = info.epoch;
        forced_tag_ = info.tag;
      }
    }
    recovery_resolved_ = true;
    last_broadcast_ = -1;  // Fresh pacer for the pre-commit round.
  }

  if (!precommit_active_) {
    // Choose the verdict to drive: a resumed pre-commit first, else commit
    // when every contract is publicly recognized, else abort on request or
    // expired patience.
    std::optional<crypto::CommitmentTag> tag =
        forced_tag_.has_value() ? forced_tag_
                                : ProposedVerdict(config_, start_time());
    if (!tag.has_value()) {
      RequestWakeAt(start_time() + config_.publish_patience);
      return;
    }
    round_tag_ = *tag;
    // kAtPrepare anchor: the coordinator dies the instant the prepare
    // outcome is determined, before any other member learns the verdict.
    if (MaybeCrashCoordinator(CoordinatorCrashPhase::kAtPrepare,
                              coordinator->node())) {
      return;
    }
    precommit_active_ = true;
    acks_.insert(c);
    (void)ApplyPreCommit(c, epoch_, round_tag_);
    if (!precommit_marked_) {
      precommit_marked_ = true;
      mutable_report()->MarkPhase("precommit_round_started", now);
    }
  }
  if (static_cast<int>(acks_.size()) < quorum()) {
    BroadcastPreCommit(c);
    return;
  }

  // Quorum acknowledged: the commit point. kAtCommit anchor: the
  // coordinator dies after collecting the quorum, before signing — the
  // survivors' pre-committed records carry the round to a verdict.
  if (MaybeCrashCoordinator(CoordinatorCrashPhase::kAtCommit,
                            coordinator->node())) {
    return;
  }
  SignDecision(c, now);
  BroadcastDecision(c);
}

void QuorumCommitEngine::MaybeTakeOver(TimePoint now) {
  const uint32_t c = CoordinatorOf(epoch_);
  if (participant(c)->IsUp()) {
    coordinator_down_since_ = -1;
    return;
  }
  if (coordinator_down_since_ < 0) {
    coordinator_down_since_ = now;
  }
  const TimePoint takeover_at =
      coordinator_down_since_ + config_.takeover_timeout;
  if (now < takeover_at) {
    RequestWakeAt(takeover_at);
    return;
  }
  uint32_t successor = VertexCount();
  for (uint32_t v = 0; v < VertexCount(); ++v) {
    if (v != c && participant(v)->IsUp()) {
      successor = v;
      break;
    }
  }
  if (successor == VertexCount()) return;  // Nobody alive to take over.
  uint64_t epoch = epoch_ + 1;
  while (CoordinatorOf(epoch) != successor) ++epoch;
  StartEpoch(epoch, now);
}

Participant* QuorumCommitEngine::SettleActor(const EdgeState& edge) const {
  (void)edge;
  return FirstLiveKnower(nullptr);
}

void QuorumCommitEngine::Step() {
  const TimePoint now = env()->sim()->Now();

  // Prepare phase: parallel deployments, always driven (senders act on
  // their own behalf regardless of the commit round's state).
  if (PublishEdges()) {
    mutable_report()->MarkPhase("contracts_published", now);
  }

  // The commit round: drive the current epoch's coordinator; survivors
  // watch for a dead coordinator and take over.
  if (!DecisionKnownToLiveMember()) {
    DriveCoordinator(now);
    MaybeTakeOver(now);
  } else {
    uint32_t knower = 0;
    (void)FirstLiveKnower(&knower);
    BroadcastDecision(knower);
  }

  // Settlement: any live holder of the signed decision settles every edge.
  if (decision_tag().has_value()) {
    for (EdgeRt& rt : edges_) {
      if (rt.settled) continue;
      const chain::Blockchain* chain = env()->blockchain(rt.edge.chain_id);
      if (rt.deploy.built() && chain->FindTx(rt.contract_id)) {
        TrySettle(&rt);
        TrackSettlement(&rt);
      }
    }
  }
}

}  // namespace ac3::protocols
