#include "src/protocols/engine_base.h"

#include <algorithm>

#include "src/contracts/atomic_swap_contract.h"

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
                               WatchConfig watch, std::string protocol_name)
    : env_(env),
      graph_(std::move(graph)),
      participants_(std::move(participants)),
      watch_(watch) {
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
  for (const graph::Ac2tEdge& e : graph_.edges()) WatchChain(e.chain_id);
  connectivity_subscription_ = env_->network()->SubscribeConnectivity(
      [this](sim::NodeId) { ScheduleStep(); });
  connectivity_subscribed_ = true;

  started_ = true;
  ScheduleStep();
  return Status::OK();
}

void SwapEngineBase::WatchChain(chain::ChainId id) {
  if (watched_chains_.count(id) > 0) return;
  chain::Blockchain* chain = env_->blockchain(id);
  if (chain == nullptr) return;
  watched_chains_.insert(id);
  head_subscriptions_.emplace_back(
      id, chain->SubscribeHead(
              [this](const chain::BlockEntry&) { ScheduleStep(); }));
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
  RequestWakeAt(env_->sim()->Now() + watch_.resubmit_interval);
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

bool SwapEngineBase::PaceResend(TimePoint* last_attempt) {
  const TimePoint now = env_->sim()->Now();
  if (*last_attempt >= 0 &&
      now - *last_attempt < watch_.resubmit_interval) {
    return false;
  }
  *last_attempt = now;
  RequestResubmitWake();
  return true;
}

void SwapEngineBase::RunStep() {
  if (done_ || !started_) return;
  Step();
  if (IsComplete()) done_ = true;
}

bool SwapEngineBase::TxConfirmedAtDepth(const chain::Blockchain* chain,
                                        const crypto::Hash256& tx_id,
                                        uint32_t depth) const {
  auto location = chain->FindTx(tx_id);
  if (!location.has_value()) return false;
  auto confirmations = chain->ConfirmationsOf(location->entry->hash);
  return confirmations.has_value() && *confirmations >= depth;
}

void SwapEngineBase::TrackPublishConfirmation(EdgeState* edge) {
  const chain::Blockchain* chain = env_->blockchain(edge->edge.chain_id);
  if (!TxConfirmedAtDepth(chain, edge->contract_id, watch_.confirm_depth)) {
    return;
  }
  edge->publish_confirmed = true;
  edge->published_at = env_->sim()->Now();
}

void SwapEngineBase::TrackSettlement(EdgeState* edge) {
  const chain::Blockchain* chain = env_->blockchain(edge->edge.chain_id);
  for (const char* function :
       {contracts::kRedeemFunction, contracts::kRefundFunction}) {
    auto call = chain->FindCall(edge->contract_id, function,
                                /*require_success=*/true);
    if (!call.has_value()) continue;
    auto confirmations = chain->ConfirmationsOf(call->entry->hash);
    if (!confirmations.has_value() ||
        *confirmations < watch_.confirm_depth) {
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

void SwapEngineBase::GossipDeploy(EdgeState* edge, Participant* sender) {
  const TimePoint now = env_->sim()->Now();
  if (edge->last_submit >= 0 &&
      now - edge->last_submit < watch_.resubmit_interval) {
    return;
  }
  env_->SubmitTransaction(sender->node(), edge->edge.chain_id,
                          edge->deploy_tx);
  edge->last_submit = now;
  RequestResubmitWake();
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
  if (coordinator_crash_fired_ || phase == CoordinatorCrashPhase::kNone ||
      coordinator_crash_plan_.phase != phase) {
    return false;
  }
  coordinator_crash_fired_ = true;
  report_.MarkPhase(
      std::string("coordinator_crash_") + CoordinatorCrashPhaseName(phase),
      env_->sim()->Now());
  env_->network()->Crash(node);
  if (coordinator_crash_plan_.recover_after >= 0) {
    // The recovery event captures the world, not the engine — the engine
    // may be destroyed before a long recovery fires.
    core::Environment* env = env_;
    env_->sim()->After(coordinator_crash_plan_.recover_after,
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
