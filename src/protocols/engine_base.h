// The shared reactive protocol-engine substrate.
//
// Every atomic-commitment engine in this repo has the same operational
// skeleton: publish transactions on simulated chains, wait for them to be
// confirmed at depth k, re-gossip what has not landed, watch deadlines and
// patience windows, survive participant crashes, and assemble a SwapReport.
// The seed implemented that skeleton three times as fixed-interval polling
// loops (one `Poll()` rescheduled every ~25 ms per engine). This base class
// implements it once, *reactively*:
//
//   * the engine's `Step()` — its protocol state machine — runs only when
//     something it watches changes: a canonical head moves on a watched
//     chain (Blockchain::SubscribeHead), a participant's connectivity
//     changes (Network::SubscribeConnectivity), a requested timer fires
//     (resubmission intervals, patience windows, timelocks), or a network
//     message addressed to the engine arrives;
//   * wakes are coalesced: any number of triggers at one instant execute
//     `Step()` once, as an ordinary deterministic simulation event.
//
// Event counts per world drop from O(duration / poll_interval x engines)
// to O(blocks + messages + retries) — the block interval, not an arbitrary
// polling constant, is the natural granularity of chain observation.
//
// The ChainWatcher portion (confirmation tracking, deploy re-gossip,
// settlement detection, report assembly) operates on the `EdgeState`
// common prefix that every engine's per-edge runtime extends.

#ifndef AC3_PROTOCOLS_ENGINE_BASE_H_
#define AC3_PROTOCOLS_ENGINE_BASE_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/environment.h"
#include "src/graph/ac2t_graph.h"
#include "src/protocols/messages.h"
#include "src/protocols/participant.h"
#include "src/protocols/swap_report.h"

/// The swap protocol engines (Herlihy HTLC, AC3TW, AC3WN) and their
/// shared reactive substrate.
namespace ac3::protocols {

/// Protocol phases at which a scheduled coordinator crash can fire (the
/// sweep grid's FailureMode::kCrashCoordinatorAt* schedules). Time-based
/// injection (sim::FailureInjector) cannot hit an exact protocol phase, so
/// engines fire these themselves through
/// SwapEngineBase::MaybeCrashCoordinator at their phase anchors.
enum class CoordinatorCrashPhase {
  kNone,       ///< No scheduled crash.
  kAtPrepare,  ///< As the coordinator finishes driving the prepare phase.
  kAtCommit,   ///< At the commit point, before the decision propagates.
};

/// Stable lowercase name ("at_prepare"), used in report phase labels.
const char* CoordinatorCrashPhaseName(CoordinatorCrashPhase phase);

/// A phase-precise crash schedule for a protocol's coordinating node (the
/// HTLC leader, Trent, AC3WN's registrar, the quorum-commit coordinator).
struct CoordinatorCrashPlan {
  /// Which phase anchor triggers the crash; kNone disables the plan.
  CoordinatorCrashPhase phase = CoordinatorCrashPhase::kNone;
  /// Recovery delay after the crash fires; negative = never recovers (the
  /// blocking-vs-nonblocking separation study's setting).
  Duration recover_after = -1;
};

/// Chain-observation knobs every engine shares.
struct WatchConfig {
  /// Confirmations before a transaction counts as publicly recognized.
  uint32_t confirm_depth = 1;
  /// Re-gossip an unconfirmed transaction / unanswered request after this
  /// long.
  Duration resubmit_interval = Seconds(2);
};

/// The reactive skeleton shared by every atomic-commitment engine:
/// confirmation tracking at depth k, deploy re-gossip, patience/timelock
/// timers, crash-aware actors, and SwapReport assembly, driving the
/// engine-specific Step() state machine on coalesced chain/connectivity/
/// timer wakes (see the file comment). Engines subclass, implement the
/// hooks, and never poll.
class SwapEngineBase {
 public:
  /// Engines hold subscriptions keyed to `this`: not copyable.
  SwapEngineBase(const SwapEngineBase&) = delete;
  /// Engines hold subscriptions keyed to `this`: not assignable.
  SwapEngineBase& operator=(const SwapEngineBase&) = delete;
  /// Cancels every chain/connectivity subscription the engine holds.
  virtual ~SwapEngineBase();

  /// Validates the graph and that every edge names a chain of this world
  /// (InvalidArgument otherwise), runs the engine-specific `OnStart()`,
  /// then wires the reactive wake sources (every edge chain's head,
  /// connectivity) and schedules the first step; returns immediately.
  Status Start();

  /// True once the engine reached its verdict and finalized the report.
  bool Done() const { return done_; }
  /// The (finalized when Done) swap report.
  const SwapReport& report() const { return report_; }

  /// Start() + run the simulation until done or `deadline`; finalizes and
  /// returns the report.
  Result<SwapReport> Run(TimePoint deadline);

 protected:
  /// Per-edge runtime state common to every protocol; engines extend it
  /// with protocol-specific fields and expose their vector via `Edge()`.
  struct EdgeState {
    graph::Ac2tEdge edge;          ///< The AC2T edge this state tracks.
    crypto::Hash256 contract_id;   ///< Deployed contract id on the edge chain.
    /// Built once, re-gossiped on retries (rebuilding would re-reserve the
    /// sender's wallet funds).
    chain::Transaction deploy_tx;
    bool deploy_built = false;      ///< deploy_tx holds a signed transaction.
    TimePoint last_submit = -1;     ///< Last deploy gossip (retry pacing).
    bool publish_confirmed = false; ///< Deploy canonical at confirm_depth.
    /// Settlement call, same build-once discipline.
    chain::Transaction settle_tx;
    bool settle_built = false;        ///< settle_tx holds a signed call.
    bool settle_submitted = false;    ///< Settlement gossiped at least once.
    TimePoint last_settle_submit = -1;///< Last settlement gossip.
    bool settled = false;             ///< A settle call is confirmed on-chain.
    EdgeOutcome outcome = EdgeOutcome::kUnpublished;  ///< Final edge verdict.
    TimePoint publish_submitted_at = -1;  ///< First deploy gossip instant.
    TimePoint published_at = -1;          ///< Deploy confirmation instant.
    TimePoint settled_at = -1;            ///< Settlement confirmation instant.
  };

  /// Wires the engine over `env`'s world: the swap `graph`, the
  /// participant actors (graph vertex order), the shared observation
  /// knobs, and the protocol name stamped into the report.
  SwapEngineBase(core::Environment* env, graph::Ac2tGraph graph,
                 std::vector<Participant*> participants, WatchConfig watch,
                 std::string protocol_name);

  // ---- engine-specific hooks --------------------------------------------

  /// Protocol setup after common validation (multisigning, edge runtime
  /// construction, extra chain watches, initial timers). `start_time()` is
  /// already set.
  virtual Status OnStart() = 0;
  /// The protocol state machine, run once per coalesced wake. Must be
  /// idempotent: it observes chain/network/timer state and advances
  /// whatever can advance.
  virtual void Step() = 0;
  /// Terminal condition, evaluated after every Step.
  virtual bool IsComplete() const = 0;
  /// The engine's per-edge runtimes, exposed through their common prefix.
  virtual size_t EdgeCount() const = 0;
  /// Mutable access to the i-th edge runtime (graph edge order).
  virtual EdgeState* Edge(size_t i) = 0;
  /// Const access to the i-th edge runtime.
  const EdgeState* Edge(size_t i) const {
    return const_cast<SwapEngineBase*>(this)->Edge(i);
  }
  /// Fills the report's committed/aborted verdict during finalize.
  virtual void FillVerdict(SwapReport* report) const = 0;
  /// Protocol fees beyond the per-edge deploy+settle (e.g. SCw's).
  virtual chain::Amount ExtraFees() const { return 0; }
  /// Called when an edge's settlement is first observed confirmed.
  virtual void OnEdgeSettled(EdgeState* edge) { (void)edge; }
  /// Typed protocol messages that survived HandleMessage's fencing,
  /// dispatched on kind/receiver. Engines that exchange off-chain messages
  /// (AC3TW, QuorumCommit) override; the purely on-chain engines keep the
  /// no-op default.
  virtual void OnMessage(const proto::Message& msg) { (void)msg; }
  /// Epoch fence floor: deliveries with msg.epoch below this are discarded
  /// before OnMessage. Default 0 (single-round protocols never fence); the
  /// quorum engine returns its current epoch so a takeover retires the old
  /// round's in-flight traffic.
  virtual uint64_t MessageEpochFloor() const { return 0; }

  // ---- wake plumbing -----------------------------------------------------

  /// Wakes the engine whenever `id`'s canonical head moves. Edge chains are
  /// watched automatically by Start(); engines add extra chains (e.g. the
  /// witness chain) from OnStart().
  void WatchChain(chain::ChainId id);
  /// Schedules a coalesced Step at the current instant.
  void ScheduleStep();
  /// Schedules a Step at absolute time `at` (deduplicated per instant);
  /// `at` in the past degrades to ScheduleStep().
  void RequestWakeAt(TimePoint at);
  /// RequestWakeAt(Now + resubmit_interval): the retry heartbeat after any
  /// submission or request attempt.
  void RequestResubmitWake();

  // ---- typed protocol messages ------------------------------------------

  /// Sends `msg` on the network's typed path. Stamps the envelope's
  /// per-engine sequence number (the duplicate fence's identity), routes
  /// delivery back through HandleMessage, and charges the report's
  /// per-swap message/byte counters. Loss recovery is the caller's pacing
  /// discipline: pace the send with PaceResend and Step() re-sends until
  /// the exchange is answered.
  void SendProtocolMessage(proto::Message msg);

  /// Delivery entry point for typed messages: fences exact duplicates of
  /// an already handled send (same seq — fault-injected re-deliveries) and
  /// stale epochs (msg.epoch < MessageEpochFloor()), then dispatches to
  /// OnMessage. Tests inject envelopes through a subclass.
  void HandleMessage(const proto::Message& msg);

  /// Resend-on-timeout helper — the shared pacing discipline of every
  /// unanswered exchange (registration, decision requests, broadcast
  /// rounds, settle gossip): true when `*last_attempt` is unset (< 0) or
  /// at least resubmit_interval old, in which case it is stamped to now
  /// and the retry heartbeat is armed so Step() runs again to re-send.
  bool PaceResend(TimePoint* last_attempt);

  // ---- ChainWatcher helpers ---------------------------------------------

  /// True when `tx_id` is canonical on `chain` and buried >= `depth`.
  bool TxConfirmedAtDepth(const chain::Blockchain* chain,
                          const crypto::Hash256& tx_id, uint32_t depth) const;

  /// Marks the edge publicly recognized once its deploy is canonical at
  /// confirm_depth.
  void TrackPublishConfirmation(EdgeState* edge);

  /// Detects a confirmed redeem/refund call on the edge's contract, sets
  /// settled/outcome/settled_at and fires OnEdgeSettled.
  void TrackSettlement(EdgeState* edge);

  /// Re-gossips the edge's built deploy transaction from `sender` when the
  /// resubmit interval has elapsed, and arms the retry heartbeat.
  void GossipDeploy(EdgeState* edge, Participant* sender);

  /// True when every edge's deploy is publicly recognized.
  bool AllPublished() const;

  /// First participant that is currently up, if any.
  Participant* FirstLiveParticipant() const;

  /// Arms the coordinator-crash schedule; engines call this from their
  /// constructor with their config's plan (default kNone = no-op).
  void SetCoordinatorCrashPlan(const CoordinatorCrashPlan& plan) {
    coordinator_crash_plan_ = plan;
  }
  /// The armed schedule (engines may consult recover_after).
  const CoordinatorCrashPlan& coordinator_crash_plan() const {
    return coordinator_crash_plan_;
  }
  /// Fires the armed crash schedule when `phase` matches and it has not
  /// fired yet: crashes `node` immediately, stamps a report phase, and
  /// schedules the optional recovery. Returns true when the crash fired on
  /// THIS call, so the caller can abandon the action the now-dead
  /// coordinator was about to take. Safe to call from inside Step():
  /// connectivity listeners triggered by the crash only schedule wakes.
  bool MaybeCrashCoordinator(CoordinatorCrashPhase phase, sim::NodeId node);

  /// Edge reports, fee accounting, end time, and the engine verdict.
  void FinalizeReport();

  // ---- shared state accessors -------------------------------------------

  core::Environment* env() const { return env_; }       ///< The world.
  const graph::Ac2tGraph& graph() const { return graph_; }  ///< Swap graph.
  /// All participant actors, in graph vertex order.
  const std::vector<Participant*>& participants() const {
    return participants_;
  }
  /// The actor at graph vertex `v`.
  Participant* participant(uint32_t v) const { return participants_[v]; }
  const WatchConfig& watch() const { return watch_; }  ///< Observation knobs.
  TimePoint start_time() const { return start_time_; } ///< Set by Start().
  bool started() const { return started_; }            ///< Start() ran OK.
  SwapReport* mutable_report() { return &report_; }    ///< Report being built.

 private:
  void RunStep();

  core::Environment* env_;
  graph::Ac2tGraph graph_;
  std::vector<Participant*> participants_;
  WatchConfig watch_;

  /// Subscriptions to cancel on destruction.
  std::vector<std::pair<chain::ChainId, chain::Blockchain::SubscriptionId>>
      head_subscriptions_;
  std::set<chain::ChainId> watched_chains_;
  sim::Network::SubscriptionId connectivity_subscription_ = 0;
  bool connectivity_subscribed_ = false;

  /// Coalescing state: at most one immediate step event and one timer per
  /// distinct wake instant are ever queued. A timer that fires routes
  /// through ScheduleStep(), so mixed timer+immediate wakes at one instant
  /// still execute Step() once. Fired timers erase their own map entry;
  /// the immediate-step handle slot is reused — outstanding handles stay
  /// bounded by pending wakes, not by wakes ever scheduled.
  bool step_pending_ = false;
  sim::EventHandle step_handle_;
  std::map<TimePoint, sim::EventHandle> pending_wakes_;

  /// Stamped into each sent envelope; the duplicate fence's identity.
  uint64_t next_message_seq_ = 1;
  /// Seqs already dispatched — a second delivery of the same send (a
  /// fault-injected duplicate) is fenced. Resends are distinct sends with
  /// fresh seqs, so they pass.
  std::set<uint64_t> seen_message_seqs_;

  TimePoint start_time_ = 0;
  bool started_ = false;
  bool done_ = false;
  CoordinatorCrashPlan coordinator_crash_plan_;
  bool coordinator_crash_fired_ = false;
  SwapReport report_;
};

}  // namespace ac3::protocols

#endif  // AC3_PROTOCOLS_ENGINE_BASE_H_
