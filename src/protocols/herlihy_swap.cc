#include "src/protocols/herlihy_swap.h"

#include <algorithm>
#include <deque>

#include "src/contracts/atomic_swap_contract.h"
#include "src/contracts/htlc_contract.h"

namespace ac3::protocols {

namespace {

/// BFS distances from `source` along directed edges; UINT32_MAX when
/// unreachable.
std::vector<uint32_t> DistancesFrom(const graph::Ac2tGraph& graph,
                                    uint32_t source) {
  std::vector<std::vector<uint32_t>> adj(graph.participant_count());
  for (const graph::Ac2tEdge& e : graph.edges()) adj[e.from].push_back(e.to);
  std::vector<uint32_t> dist(graph.participant_count(), UINT32_MAX);
  dist[source] = 0;
  std::deque<uint32_t> queue{source};
  while (!queue.empty()) {
    uint32_t u = queue.front();
    queue.pop_front();
    for (uint32_t v : adj[u]) {
      if (dist[v] == UINT32_MAX) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

}  // namespace

HerlihySwapEngine::HerlihySwapEngine(core::Environment* env,
                                     graph::Ac2tGraph graph,
                                     std::vector<Participant*> participants,
                                     HtlcConfig config)
    : SwapEngineBase(env, std::move(graph), std::move(participants), config,
                     /*protocol_name=*/"", contracts::kHtlcKind) {
  // Nolan's two-party swap is this engine at |V| = 2 (the paper presents
  // them separately; the mechanics coincide).
  mutable_report()->protocol = this->graph().participant_count() == 2
                                   ? "Nolan-HTLC"
                                   : "Herlihy-HTLC";
}

Status HerlihySwapEngine::OnStart() {
  auto leader = graph().FindSingleLeader();
  if (!leader.has_value()) {
    return Status::FailedPrecondition(
        "graph is not single-leader feasible (" + graph().Describe() +
        "); Nolan/Herlihy cannot execute it — see Section 5.3");
  }
  leader_ = *leader;
  std::vector<uint32_t> dist = DistancesFrom(graph(), leader_);
  for (const graph::Ac2tEdge& e : graph().edges()) {
    if (dist[e.from] == UINT32_MAX) {
      return Status::FailedPrecondition(
          "a sender is unreachable from the leader; sequential publishing "
          "cannot cover the graph");
    }
  }

  // The leader's secret and hashlock.
  secret_ = env()->sim()->rng()->NextBytes(32);
  hashlock_ = crypto::Hash256::Of(secret_);

  // Publish steps and timelocks: step(e) = dist(L -> sender). Contracts
  // published earlier carry LATER timelocks (t1 > t2), leaving later
  // redeemers room — exactly Nolan's two-party schedule at |V| = 2.
  uint32_t max_step = 0;
  for (const graph::Ac2tEdge& e : graph().edges()) {
    max_step = std::max(max_step, dist[e.from]);
  }
  const uint32_t publish_rounds = max_step + 1;
  for (const graph::Ac2tEdge& e : graph().edges()) {
    EdgeRt rt;
    rt.edge = e;
    rt.publish_step = dist[e.from];
    const uint32_t redeem_slack = max_step - rt.publish_step;
    rt.timelock = start_time() +
                  engine_config().delta * (publish_rounds + redeem_slack + 2);
    max_timelock_ = std::max(max_timelock_, rt.timelock);
    edges_.push_back(std::move(rt));
  }
  knows_secret_.assign(graph().participant_count(), false);
  knows_secret_[leader_] = true;

  // Past this point nobody waits for a never-published contract; the wake
  // guarantees the terminal check runs even if every chain has gone quiet.
  give_up_time_ = max_timelock_ + 2 * engine_config().delta;
  RequestWakeAt(give_up_time_ + 1);
  return Status::OK();
}

bool HerlihySwapEngine::MayPublish(uint32_t u) const {
  if (u == leader_) return true;
  // All incoming contracts of u must be publicly recognized first.
  for (const EdgeRt& rt : edges_) {
    if (rt.edge.to == u && !rt.publish_confirmed) return false;
  }
  return true;
}

Bytes HerlihySwapEngine::ContractInit(EdgeState* edge) {
  return Encode(contracts::HtlcInit{participant(edge->edge.to)->pk(),
                                    hashlock_,
                                    static_cast<EdgeRt*>(edge)->timelock});
}

void HerlihySwapEngine::SettleByTimelock(EdgeRt* rt) {
  const TimePoint now = env()->sim()->Now();
  const chain::Blockchain* chain = env()->blockchain(rt->edge.chain_id);

  // Redeem by the recipient while the timelock is live.
  Participant* recipient = participant(rt->edge.to);
  const bool recipient_knows =
      rt->edge.to == leader_ ? AllPublished() : knows_secret_[rt->edge.to];
  // kAtCommit anchor: the leader is about to redeem its first incoming
  // contract — the reveal of s that commits the whole swap — and dies
  // instead. The secret never reaches a chain, so nobody else can redeem.
  if (!rt->redeem_submitted && recipient_knows && rt->edge.to == leader_ &&
      now < rt->timelock &&
      MaybeCrashCoordinator(CoordinatorCrashPhase::kAtCommit,
                            recipient->node())) {
    return;
  }
  if (!rt->redeem_submitted && recipient_knows && recipient->IsUp() &&
      now < rt->timelock) {
    auto call = recipient->SubmitCall(rt->edge.chain_id, rt->contract_id,
                                      contracts::kRedeemFunction, secret_,
                                      chain->params().call_fee);
    if (call.ok()) {
      rt->redeem_submitted = true;
      if (!reveal_marked_ && rt->edge.to == leader_) {
        reveal_marked_ = true;
        mutable_report()->MarkPhase("leader_reveals_secret", now);
      }
    }
  }

  // Refund by the sender after expiry, while the contract is still locked.
  Participant* sender = participant(rt->edge.from);
  const TimePoint head_time = chain->head()->block.header.time;
  if (!rt->refund_submitted && sender->IsUp() && head_time >= rt->timelock) {
    auto contract = chain->ContractAtHead(rt->contract_id);
    if (contract.ok()) {
      auto swap = std::dynamic_pointer_cast<const contracts::AtomicSwapContract>(
          *contract);
      if (swap != nullptr &&
          swap->state() == contracts::SwapState::kPublished) {
        auto call = sender->SubmitCall(rt->edge.chain_id, rt->contract_id,
                                       contracts::kRefundFunction, {},
                                       chain->params().call_fee);
        if (call.ok()) rt->refund_submitted = true;
      }
    }
  }
}

void HerlihySwapEngine::OnEdgeSettled(EdgeState* edge) {
  if (mutable_report()->decision_time < 0) {
    mutable_report()->decision_time = edge->settled_at;
  }
}

void HerlihySwapEngine::ObserveSecrets() {
  // A participant learns s when one of its outgoing contracts is redeemed
  // (the redeem call's payload carries the preimage).
  for (const EdgeRt& rt : edges_) {
    if (!rt.deploy.built() || knows_secret_[rt.edge.from]) continue;
    const chain::Blockchain* chain = env()->blockchain(rt.edge.chain_id);
    auto call = chain->FindCall(rt.contract_id, contracts::kRedeemFunction,
                                /*require_success=*/true);
    if (!call.has_value()) continue;
    const chain::Transaction& tx = call->entry->block.txs[call->index];
    if (crypto::Hash256::Of(tx.payload()) == hashlock_) {
      // Only an up participant observes the chain.
      if (participant(rt.edge.from)->IsUp()) {
        knows_secret_[rt.edge.from] = true;
      }
    }
  }
}

bool HerlihySwapEngine::IsComplete() const {
  const TimePoint now = env()->sim()->Now();
  for (const EdgeRt& rt : edges_) {
    if (rt.settled) continue;
    if (!rt.deploy.built() && now > give_up_time_) {
      continue;  // Never published and nobody is waiting any more.
    }
    return false;  // Something can still move.
  }
  return true;
}

void HerlihySwapEngine::MaybeCrashLeader() {
  // kAtPrepare anchor: every outgoing contract of the leader has been
  // built and handed to the network — the leader's funds are committed —
  // and the leader dies before the swap can advance further. Its outgoing
  // contracts strand: refunds require the SENDER to submit the call.
  bool leader_prepared = true;
  for (const EdgeRt& rt : edges_) {
    if (rt.edge.from == leader_ && !rt.deploy.built()) leader_prepared = false;
  }
  if (leader_prepared) {
    MaybeCrashCoordinator(CoordinatorCrashPhase::kAtPrepare,
                          participant(leader_)->node());
  }
}

void HerlihySwapEngine::Step() {
  MaybeCrashLeader();
  ObserveSecrets();
  for (EdgeRt& rt : edges_) {
    if (rt.settled) continue;
    if (!rt.publish_confirmed) {
      TryPublish(&rt);
      if (rt.deploy.built()) TrackPublishConfirmation(&rt);
      // Fall through when the confirmation landed this very wake: the next
      // protocol action should not wait for another block arrival.
      if (!rt.publish_confirmed) continue;
    }
    SettleByTimelock(&rt);
    TrackSettlement(&rt);
  }
}

void HerlihySwapEngine::FillVerdict(SwapReport* report) const {
  report->committed = report->AllRedeemed();
  report->aborted = !report->committed && report->AllRefunded();
}

}  // namespace ac3::protocols
