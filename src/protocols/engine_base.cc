#include "src/protocols/engine_base.h"

#include <algorithm>
#include <string>

#include "src/common/logging.h"
#include "src/contracts/atomic_swap_contract.h"
#include "src/graph/multisig_graph.h"

namespace ac3::protocols {

const char* CoordinatorCrashPhaseName(CoordinatorCrashPhase phase) {
  switch (phase) {
    case CoordinatorCrashPhase::kNone:
      return "none";
    case CoordinatorCrashPhase::kAtPrepare:
      return "at_prepare";
    case CoordinatorCrashPhase::kAtCommit:
      return "at_commit";
  }
  return "?";
}

SwapEngineBase::SwapEngineBase(core::Environment* env, graph::Ac2tGraph graph,
                               std::vector<Participant*> participants,
                               const EngineConfig& config,
                               std::string protocol_name,
                               std::string contract_kind)
    : env_(env),
      graph_(std::move(graph)),
      participants_(std::move(participants)),
      config_(config),
      contract_kind_(std::move(contract_kind)) {
  report_.protocol = std::move(protocol_name);
}

SwapEngineBase::~SwapEngineBase() {
  for (const auto& [chain_id, subscription] : head_subscriptions_) {
    chain::Blockchain* chain = env_->blockchain(chain_id);
    if (chain != nullptr) chain->UnsubscribeHead(subscription);
  }
  if (connectivity_subscribed_) {
    env_->network()->UnsubscribeConnectivity(connectivity_subscription_);
  }
  // Cancel queued wakes so a destroyed engine is never called back (other
  // engines may keep running the same simulation afterwards).
  step_handle_.Cancel();
  for (auto& [at, handle] : pending_wakes_) handle.Cancel();
}

Status SwapEngineBase::Start() {
  AC3_RETURN_IF_ERROR(graph_.Validate());
  if (participants_.size() != graph_.participant_count()) {
    return Status::InvalidArgument("participant list does not match graph");
  }
  // Vertex v is the party participants_[v] acts for: an engine that pays
  // participant(edge.to) (Herlihy) never reads the graph's keys itself.
  for (size_t v = 0; v < participants_.size(); ++v) {
    if (graph_.participants()[v] != participants_[v]->pk()) {
      return Status::InvalidArgument("graph vertex " + std::to_string(v) +
                                     " is not its participant's key");
    }
  }
  // A graph may name any chain id; the engines read each edge's chain from
  // OnStart() on, so one this world lacks is turned away here.
  for (const graph::Ac2tEdge& e : graph_.edges()) {
    if (env_->blockchain(e.chain_id) == nullptr) {
      return Status::InvalidArgument("edge references an unknown blockchain");
    }
  }

  start_time_ = env_->sim()->Now();
  report_.start_time = start_time_;

  AC3_RETURN_IF_ERROR(OnStart());

  // Wake sources: every chain an edge lives on, plus connectivity changes
  // (a recovered participant must act on what it missed). Engines add
  // extra chains (e.g. the witness chain) from OnStart().
  for (const graph::Ac2tEdge& e : graph_.edges()) {
    AC3_RETURN_IF_ERROR(WatchChain(e.chain_id));
  }
  connectivity_subscription_ = env_->network()->SubscribeConnectivity(
      [this](sim::NodeId) { ScheduleStep(); });
  connectivity_subscribed_ = true;

  started_ = true;
  ScheduleStep();
  return Status::OK();
}

Status SwapEngineBase::WatchChain(chain::ChainId id) {
  chain::Blockchain* chain = env_->blockchain(id);
  if (chain == nullptr) {
    return Status::InvalidArgument("watched chain " + std::to_string(id) +
                                   " is not in this world");
  }
  if (!watched_chains_.insert(id).second) return Status::OK();
  head_subscriptions_.emplace_back(
      id, chain->SubscribeHead(
              [this](const chain::BlockEntry&) { ScheduleStep(); }));
  return Status::OK();
}

void SwapEngineBase::ScheduleStep() {
  if (done_ || step_pending_) return;
  step_pending_ = true;
  step_handle_ = env_->sim()->After(0, [this]() {
    step_pending_ = false;
    RunStep();
  });
}

void SwapEngineBase::RequestWakeAt(TimePoint at) {
  const TimePoint now = env_->sim()->Now();
  if (at <= now) {
    ScheduleStep();
    return;
  }
  if (done_ || pending_wakes_.count(at) > 0) return;
  pending_wakes_.emplace(at, env_->sim()->At(at, [this, at]() {
    pending_wakes_.erase(at);
    // Route through the coalescer: if an immediate step is already queued
    // at this instant, this timer must not run Step() a second time.
    ScheduleStep();
  }));
}

void SwapEngineBase::RequestResubmitWake() {
  RequestWakeAt(env_->sim()->Now() + config_.resubmit_interval);
}

void SwapEngineBase::SendProtocolMessage(proto::Message msg) {
  msg.seq = next_message_seq_++;
  report_.messages_sent += 1;
  report_.message_bytes_sent += static_cast<int64_t>(msg.EncodedSize());
  env_->network()->SendMessage(
      msg, [this](const proto::Message& m) { HandleMessage(m); });
}

void SwapEngineBase::HandleMessage(const proto::Message& msg) {
  // A finished engine fences everything: its verdict is final and late
  // traffic must not mutate the report.
  if (done_) {
    report_.messages_fenced += 1;
    return;
  }
  // Duplicate fence: each *send* is dispatched at most once. A second copy
  // (fault-injected duplication shares the original's seq) is dropped; a
  // resend is a fresh send with a fresh seq, so it passes.
  if (!seen_message_seqs_.insert(msg.seq).second) {
    report_.messages_fenced += 1;
    return;
  }
  // Epoch fence: traffic from a retired round (e.g. pre-takeover quorum
  // broadcasts) is discarded before the engine sees it.
  if (msg.epoch < MessageEpochFloor()) {
    report_.messages_fenced += 1;
    return;
  }
  report_.messages_delivered += 1;
  OnMessage(msg);
}

bool SwapEngineBase::ResendDue(TimePoint last_sent) const {
  return last_sent < 0 ||
         env_->sim()->Now() - last_sent >= config_.resubmit_interval;
}

bool SwapEngineBase::PaceResend(TimePoint* last_attempt) {
  if (!ResendDue(*last_attempt)) return false;
  *last_attempt = env_->sim()->Now();
  RequestResubmitWake();
  return true;
}

void SwapEngineBase::GossipTx(GossipedTx* record, Participant* from,
                              chain::ChainId chain) {
  env_->SubmitTransaction(from->node(), chain, record->tx);
  record->last_sent = env_->sim()->Now();
  RequestResubmitWake();
}

Result<crypto::Multisignature> SwapEngineBase::MultisignGraph() const {
  // Even a participant that will later decline to publish signs here:
  // agreeing on D is how the swap is proposed; declining to fund it is the
  // abort trigger.
  std::vector<crypto::KeyPair> keys;
  keys.reserve(participants_.size());
  for (Participant* p : participants_) keys.push_back(p->key());
  return graph::SignGraph(graph_, keys);
}

void SwapEngineBase::TryPublish(EdgeState* edge) {
  Participant* sender = participant(edge->edge.from);
  if (sender->behavior().decline_publish || !sender->IsUp() ||
      !MayPublish(edge->edge.from)) {
    return;
  }
  const TimePoint now = env_->sim()->Now();
  if (!edge->deploy.built()) {
    const chain::Blockchain* chain = env_->blockchain(edge->edge.chain_id);
    const Bytes init = ContractInit(edge);
    auto tx = sender->WalletFor(edge->edge.chain_id)
                  ->BuildDeploy(chain->StateAtHead(), contract_kind_, init,
                                edge->edge.amount, chain->params().deploy_fee,
                                static_cast<uint64_t>(now) ^ edge->edge.to);
    if (!tx.ok()) {
      AC3_WARN << sender->name() << " cannot fund " << contract_kind_
               << ": " << tx.status().ToString();
      return;
    }
    edge->deploy.tx = *tx;
    edge->deploy.builder = sender;
    edge->contract_id = tx->Id();
    edge->publish_submitted_at = now;
    edge->outcome = EdgeOutcome::kPublished;
  }
  if (ResendDue(edge->deploy.last_sent)) {
    GossipTx(&edge->deploy, sender, edge->edge.chain_id);
  }
}

bool SwapEngineBase::PublishEdges() {
  const bool was_all_published = AllPublished();
  for (size_t i = 0; i < EdgeCount(); ++i) {
    EdgeState* edge = Edge(i);
    if (edge->publish_confirmed) continue;
    TryPublish(edge);
    if (edge->deploy.built()) TrackPublishConfirmation(edge);
  }
  return !was_all_published && AllPublished();
}

void SwapEngineBase::Decide(crypto::CommitmentTag tag, Bytes secret) {
  decision_tag_ = tag;
  decision_secret_ = std::move(secret);
  report_.decision_time = env_->sim()->Now();
}

std::optional<crypto::CommitmentTag> SwapEngineBase::ProposedVerdict(
    const VerdictConfig& config, TimePoint patience_from) const {
  if (config.request_abort) return crypto::CommitmentTag::kRefund;
  if (AllPublished()) return crypto::CommitmentTag::kRedeem;
  if (env_->sim()->Now() - patience_from >= config.publish_patience) {
    return crypto::CommitmentTag::kRefund;
  }
  return std::nullopt;
}

Participant* SwapEngineBase::SettleActor(const EdgeState& edge) const {
  Participant* actor = *decision_tag_ == crypto::CommitmentTag::kRedeem
                           ? participant(edge.edge.to)
                           : participant(edge.edge.from);
  return actor->IsUp() ? actor : nullptr;
}

void SwapEngineBase::TrySettle(EdgeState* edge) {
  if (!decision_tag_.has_value() || !ResendDue(edge->settle.last_sent)) {
    return;
  }
  Participant* actor = SettleActor(*edge);
  if (actor == nullptr) return;
  Result<Bytes> args = SettleArgs(*edge);
  if (!args.ok()) return;
  GossipedTx& call = edge->settle;
  if (!call.built() || (call.builder != actor && !call.builder->IsUp())) {
    const chain::Blockchain* chain = env_->blockchain(edge->edge.chain_id);
    auto tx = actor->WalletFor(edge->edge.chain_id)
                  ->BuildCall(chain->StateAtHead(), edge->contract_id,
                              *decision_tag_ == crypto::CommitmentTag::kRedeem
                                  ? contracts::kRedeemFunction
                                  : contracts::kRefundFunction,
                              *args, chain->params().call_fee,
                              static_cast<uint64_t>(env_->sim()->Now()) ^
                                  edge->edge.from);
    if (!tx.ok()) return;
    call.tx = *tx;
    call.builder = actor;
  }
  GossipTx(&call, actor, edge->edge.chain_id);
}

bool SwapEngineBase::IsComplete() const {
  if (!decision_tag_.has_value()) return false;
  for (size_t i = 0; i < EdgeCount(); ++i) {
    const EdgeState* edge = Edge(i);
    if (edge->settled || !edge->deploy.built()) continue;
    // A refund verdict gives up on a deploy that never reached a chain
    // (nothing is locked); one that landed, even unconfirmed, is waited for.
    if (*decision_tag_ == crypto::CommitmentTag::kRefund &&
        !env_->blockchain(edge->edge.chain_id)
             ->FindTx(edge->contract_id)
             .has_value()) {
      continue;
    }
    return false;
  }
  return true;
}

void SwapEngineBase::FillVerdict(SwapReport* report) const {
  report->committed = decision_tag_ == crypto::CommitmentTag::kRedeem;
  report->aborted = decision_tag_ == crypto::CommitmentTag::kRefund;
}

void SwapEngineBase::RunStep() {
  if (done_ || !started_) return;
  Step();
  if (IsComplete()) done_ = true;
}

void SwapEngineBase::TrackPublishConfirmation(EdgeState* edge) {
  const chain::Blockchain* chain = env_->blockchain(edge->edge.chain_id);
  if (!chain->TxConfirmedAtDepth(edge->contract_id, config_.confirm_depth)) {
    return;
  }
  edge->publish_confirmed = true;
  edge->published_at = env_->sim()->Now();
}

void SwapEngineBase::TrackSettlement(EdgeState* edge) {
  const chain::Blockchain* chain = env_->blockchain(edge->edge.chain_id);
  for (const char* function :
       {contracts::kRedeemFunction, contracts::kRefundFunction}) {
    if (!chain->CallConfirmedAtDepth(edge->contract_id, function,
                                     config_.confirm_depth)) {
      continue;
    }
    edge->settled = true;
    edge->settled_at = env_->sim()->Now();
    edge->outcome = function == std::string(contracts::kRedeemFunction)
                        ? EdgeOutcome::kRedeemed
                        : EdgeOutcome::kRefunded;
    OnEdgeSettled(edge);
    return;
  }
}

bool SwapEngineBase::AllPublished() const {
  for (size_t i = 0; i < EdgeCount(); ++i) {
    if (!Edge(i)->publish_confirmed) return false;
  }
  return true;
}

Participant* SwapEngineBase::FirstLiveParticipant() const {
  for (Participant* p : participants_) {
    if (p->IsUp()) return p;
  }
  return nullptr;
}

bool SwapEngineBase::MaybeCrashCoordinator(CoordinatorCrashPhase phase,
                                           sim::NodeId node) {
  const CoordinatorCrashPlan& plan = config_.coordinator_crash;
  if (coordinator_crash_fired_ || phase == CoordinatorCrashPhase::kNone ||
      plan.phase != phase) {
    return false;
  }
  coordinator_crash_fired_ = true;
  report_.MarkPhase(
      std::string("coordinator_crash_") + CoordinatorCrashPhaseName(phase),
      env_->sim()->Now());
  env_->network()->Crash(node);
  if (plan.recover_after >= 0) {
    // The recovery event captures the world, not the engine — the engine
    // may be destroyed before a long recovery fires.
    core::Environment* env = env_;
    env_->sim()->After(plan.recover_after,
                       [env, node]() { env->network()->Recover(node); });
  }
  return true;
}

void SwapEngineBase::FinalizeReport() {
  report_.finished = done_;
  report_.edges.clear();
  TimePoint last_settle = -1;
  chain::Amount fees = 0;
  for (size_t i = 0; i < EdgeCount(); ++i) {
    const EdgeState* rt = Edge(i);
    EdgeReport edge;
    edge.edge = rt->edge;
    edge.contract_id = rt->contract_id;
    edge.outcome = rt->outcome;
    edge.publish_submitted_at = rt->publish_submitted_at;
    edge.published_at = rt->published_at;
    edge.settled_at = rt->settled_at;
    report_.edges.push_back(edge);
    last_settle = std::max(last_settle, rt->settled_at);
    const chain::ChainParams& params =
        env_->blockchain(rt->edge.chain_id)->params();
    if (rt->publish_confirmed) fees += params.deploy_fee;
    if (rt->settled) fees += params.call_fee;
  }
  report_.total_fees = fees + ExtraFees();
  report_.end_time = last_settle >= 0 ? last_settle : env_->sim()->Now();
  FillVerdict(&report_);
}

Result<SwapReport> SwapEngineBase::Run(TimePoint deadline) {
  if (!started_) {
    AC3_RETURN_IF_ERROR(Start());
  }
  (void)env_->sim()->RunUntilCondition([this]() { return done_; }, deadline);
  FinalizeReport();
  return report_;
}

}  // namespace ac3::protocols
