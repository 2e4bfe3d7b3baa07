// The skeleton every atomic-commitment engine in this repo runs.
//
// Herlihy's HTLC swap, AC3TW, AC3WN and the quorum-commit engine share one
// shape (Section 4): every sender publishes a contract on its edge's chain,
// one decision is reached, and every published contract is redeemed or
// refunded under it. They differ only in who decides — the leader's secret
// and timelocks, Trent, SCw buried d deep, or a quorum-acknowledged round.
// SwapEngineBase holds everything but the decision:
//
//   * publish: each sender builds its deploy once (the engine supplies the
//     contract's init payload) and re-gossips it until it is canonical at
//     confirm_depth;
//   * decide: the engine records the verdict (Decide); the base answers
//     IsComplete and the report's verdict from it;
//   * settle: the redeem or refund call is built once and re-gossiped
//     until it is confirmed (the engine may choose the actor and the call's
//     argument);
//   * resend pacing for transactions and typed protocol messages alike
//     (ResendDue), the coordinator-crash hook, and the SwapReport.
//
// Engines are reactive: Step() runs only when something it watches changes
// — a canonical head moves on a watched chain, a participant's
// connectivity changes, a requested timer fires, or a typed protocol
// message arrives — and any number of triggers at one instant execute
// Step() once, as an ordinary deterministic simulation event.

#ifndef AC3_PROTOCOLS_ENGINE_BASE_H_
#define AC3_PROTOCOLS_ENGINE_BASE_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/environment.h"
#include "src/crypto/commitment.h"
#include "src/crypto/multisig.h"
#include "src/graph/ac2t_graph.h"
#include "src/protocols/messages.h"
#include "src/protocols/participant.h"
#include "src/protocols/swap_report.h"

/// The swap protocol engines (Herlihy HTLC, AC3TW, AC3WN, quorum commit)
/// and the skeleton they share.
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

/// The knobs every engine's config carries. The base reads confirm_depth,
/// resubmit_interval and coordinator_crash itself; delta is the time unit
/// of Herlihy's timelocks and of the quorum engine's takeover. The
/// defaults, with VerdictConfig's and the engines' own, are the swap-world
/// profile every study, benchmark workload and sweep runs
/// (runner::SweepGridConfig reads them).
struct EngineConfig {
  /// Δ: "enough time for any participant to publish a smart contract ...
  /// and for this change to be publicly recognized" (Section 6.1).
  Duration delta = Seconds(2);
  /// Confirmations before a transaction counts as publicly recognized.
  uint32_t confirm_depth = 1;
  /// Re-gossip an unconfirmed transaction, or re-send an unanswered
  /// protocol message, after this long.
  Duration resubmit_interval = Milliseconds(800);
  /// Phase-precise crash schedule for the engine's coordinating node; each
  /// engine's class comment says where its two anchors fire.
  CoordinatorCrashPlan coordinator_crash;
};

/// The abort triggers of the engines that decide one verdict (AC3TW,
/// AC3WN, quorum commit); SwapEngineBase::ProposedVerdict applies them.
struct VerdictConfig : EngineConfig {
  /// Decide abort when contracts are still missing this long after the
  /// engine's patience clock starts (registration at Trent, SCw
  /// confirmation, or swap start for the quorum engine).
  Duration publish_patience = Seconds(20);
  /// A participant "changes her mind": decide abort at once (the paper's
  /// protocol step 6).
  bool request_abort = false;
};

/// The skeleton shared by every atomic-commitment engine (see the file
/// comment): publish, decide, settle, resend pacing, crash-aware actors and
/// SwapReport assembly, driving the engine's Step() state machine on
/// coalesced chain/connectivity/timer/message wakes. Engines subclass,
/// supply their decision step through the hooks, and never poll.
class SwapEngineBase {
 public:
  /// Engines hold subscriptions keyed to `this`: not copyable.
  SwapEngineBase(const SwapEngineBase&) = delete;
  /// Engines hold subscriptions keyed to `this`: not assignable.
  SwapEngineBase& operator=(const SwapEngineBase&) = delete;
  /// Cancels every chain/connectivity subscription the engine holds.
  virtual ~SwapEngineBase();

  /// Validates the graph and that every edge names a chain of this world
  /// (InvalidArgument otherwise), runs the engine-specific `OnStart()` (its
  /// error, e.g. an extra watched chain this world lacks, is returned),
  /// then wires the reactive wake sources (every edge chain's head,
  /// connectivity) and schedules the first step; returns immediately.
  Status Start();

  /// True once the engine reached its verdict and finalized the report.
  bool Done() const { return done_; }
  /// The (finalized when Done) swap report.
  const SwapReport& report() const { return report_; }
  /// The verdict recorded by Decide(), once one exists. Herlihy's swap has
  /// no single decision and never records one.
  std::optional<crypto::CommitmentTag> decision_tag() const {
    return decision_tag_;
  }

  /// Start() + run the simulation until done or `deadline`; finalizes and
  /// returns the report.
  Result<SwapReport> Run(TimePoint deadline);

 protected:
  /// A transaction built once and re-gossiped until it lands: rebuilding on
  /// a retry would re-reserve the funding wallet's inputs, so an engine
  /// rebuilds only where another participant takes the role over.
  struct GossipedTx {
    chain::Transaction tx;           ///< The signed transaction, once built.
    Participant* builder = nullptr;  ///< Who funded tx; null until built.
    TimePoint last_sent = -1;        ///< Last gossip instant (retry pacing).
    /// True once `tx` holds a signed transaction.
    bool built() const { return builder != nullptr; }
  };

  /// Per-edge runtime state common to every protocol; engines extend it
  /// with protocol-specific fields and expose their vector via `Edge()`.
  struct EdgeState {
    graph::Ac2tEdge edge;          ///< The AC2T edge this state tracks.
    crypto::Hash256 contract_id;   ///< Deployed contract id on the edge chain.
    GossipedTx deploy;             ///< The sender's contract deployment.
    bool publish_confirmed = false;  ///< Deploy canonical at confirm_depth.
    GossipedTx settle;             ///< The redeem or refund call (TrySettle).
    bool settled = false;          ///< A settle call is confirmed on-chain.
    EdgeOutcome outcome = EdgeOutcome::kUnpublished;  ///< Final edge verdict.
    TimePoint publish_submitted_at = -1;  ///< First deploy gossip instant.
    TimePoint published_at = -1;          ///< Deploy confirmation instant.
    TimePoint settled_at = -1;            ///< Settlement confirmation instant.
  };

  /// Wires the engine over `env`'s world: the swap `graph`, the
  /// participant actors (graph vertex order), the shared knobs, the
  /// protocol name stamped into the report, and the kind of contract every
  /// sender deploys.
  SwapEngineBase(core::Environment* env, graph::Ac2tGraph graph,
                 std::vector<Participant*> participants,
                 const EngineConfig& config, std::string protocol_name,
                 std::string contract_kind);

  // ---- engine-specific hooks --------------------------------------------

  /// Protocol setup after common validation (edge runtime construction,
  /// extra chain watches, initial timers). `start_time()` is already set.
  virtual Status OnStart() = 0;
  /// The protocol state machine, run once per coalesced wake. Must be
  /// idempotent: it observes chain/network/timer state and advances
  /// whatever can advance.
  virtual void Step() = 0;
  /// Terminal condition, evaluated after every Step. Default: a verdict is
  /// recorded and every contract that can still settle under it has
  /// settled (a refund gives up on deploys that never reached a chain).
  virtual bool IsComplete() const;
  /// The engine's per-edge runtimes, exposed through their common prefix.
  virtual size_t EdgeCount() const = 0;
  /// Mutable access to the i-th edge runtime (graph edge order).
  virtual EdgeState* Edge(size_t i) = 0;
  /// Const access to the i-th edge runtime.
  const EdgeState* Edge(size_t i) const {
    return const_cast<SwapEngineBase*>(this)->Edge(i);
  }
  /// Fills the report's committed/aborted verdict during finalize.
  /// Default: committed on a redeem verdict, aborted on a refund verdict.
  virtual void FillVerdict(SwapReport* report) const;
  /// The init payload of `edge`'s contract, built when its sender first
  /// publishes (TryPublish).
  virtual Bytes ContractInit(EdgeState* edge) = 0;
  /// Gate on publishing: vertex `sender` may publish its outgoing contracts
  /// now. Default: always (Herlihy's sequential rounds override it).
  virtual bool MayPublish(uint32_t sender) const {
    (void)sender;
    return true;
  }
  /// Who settles `edge` under the recorded verdict, or null when nobody
  /// can act now. Default: the recipient redeems, the sender refunds,
  /// each only while up.
  virtual Participant* SettleActor(const EdgeState& edge) const;
  /// The argument of `edge`'s redeem or refund call, asked on every
  /// settle attempt; an error skips the attempt. Default: the secret
  /// recorded by Decide().
  virtual Result<Bytes> SettleArgs(const EdgeState& edge) const {
    (void)edge;
    return decision_secret_;
  }
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

  /// Wakes the engine whenever `id`'s canonical head moves; InvalidArgument
  /// when this world has no chain `id`. Edge chains are watched by Start();
  /// engines add extra chains (e.g. the witness chain) from OnStart() and
  /// return its error.
  Status WatchChain(chain::ChainId id);
  /// Schedules a coalesced Step at the current instant.
  void ScheduleStep();
  /// Schedules a Step at absolute time `at` (deduplicated per instant);
  /// `at` in the past degrades to ScheduleStep().
  void RequestWakeAt(TimePoint at);

  // ---- resend pacing -----------------------------------------------------

  /// The one pacing rule of every unanswered exchange and unconfirmed
  /// transaction: true when `last_sent` is unset (< 0) or at least
  /// resubmit_interval old.
  bool ResendDue(TimePoint last_sent) const;

  /// Message pacing: when ResendDue(*last_attempt), stamps it to now, arms
  /// the retry heartbeat so Step() runs again to re-send, and returns true;
  /// the caller then sends.
  bool PaceResend(TimePoint* last_attempt);

  /// Transaction pacing, after the caller's ResendDue check: submits
  /// `record->tx` from `from` on `chain`, then stamps `last_sent` and arms
  /// the retry heartbeat. The stamp follows the send because callers may
  /// skip a due attempt (actor down, evidence not ready, build failed).
  void GossipTx(GossipedTx* record, Participant* from, chain::ChainId chain);

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

  // ---- the shared publish / decide / settle path ---------------------------

  /// Step 1 of AC3TW, AC3WN and quorum commit: every participant multisigns
  /// (D, t), giving ms(D).
  Result<crypto::Multisignature> MultisignGraph() const;

  /// Publishes `edge`'s contract when its sender is up, willing and allowed
  /// (MayPublish): builds the deploy once (ContractInit, nonce now ^
  /// edge.to), stamps the edge published, and re-gossips it when due.
  void TryPublish(EdgeState* edge);

  /// One publish pass: TryPublish and TrackPublishConfirmation on every
  /// edge not yet publicly recognized. True when this pass completed the
  /// publication of every edge.
  bool PublishEdges();

  /// Records the swap's verdict, and the secret that settles under it
  /// (SettleArgs' default), and stamps the report's decision_time. Call
  /// once.
  void Decide(crypto::CommitmentTag tag, Bytes secret = {});

  /// The secret recorded by Decide() (empty where settle arguments are
  /// built per call, as AC3WN's receipt evidence).
  const Bytes& decision_secret() const { return decision_secret_; }

  /// The verdict rule of the engines that decide one verdict: abort on
  /// request, commit once every contract is publicly recognized, abort
  /// when `patience_from + publish_patience` has passed; nullopt while
  /// none applies yet.
  std::optional<crypto::CommitmentTag> ProposedVerdict(
      const VerdictConfig& config, TimePoint patience_from) const;

  /// Settles `edge` under the recorded verdict when a resend is due: the
  /// actor (SettleActor) builds the redeem or refund call once, with
  /// SettleArgs and nonce now ^ edge.from, and re-gossips it. The call is
  /// rebuilt only when its builder is down and another actor took over.
  void TrySettle(EdgeState* edge);

  // ---- ChainWatcher helpers ---------------------------------------------

  /// Marks the edge publicly recognized once its deploy is canonical at
  /// confirm_depth.
  void TrackPublishConfirmation(EdgeState* edge);

  /// Detects a confirmed redeem/refund call on the edge's contract, sets
  /// settled/outcome/settled_at and fires OnEdgeSettled.
  void TrackSettlement(EdgeState* edge);

  /// True when every edge's deploy is publicly recognized.
  bool AllPublished() const;

  /// First participant that is currently up, if any.
  Participant* FirstLiveParticipant() const;

  /// Fires the configured coordinator-crash schedule when `phase` matches
  /// and it has not fired yet: crashes `node` immediately, stamps a report
  /// phase, and schedules the optional recovery. Returns true when the
  /// crash fired on THIS call, so the caller can abandon the action the
  /// now-dead coordinator was about to take. Safe to call from inside
  /// Step(): connectivity listeners triggered by the crash only schedule
  /// wakes.
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
  /// The shared knobs this engine was built with.
  const EngineConfig& engine_config() const { return config_; }
  TimePoint start_time() const { return start_time_; } ///< Set by Start().
  SwapReport* mutable_report() { return &report_; }    ///< Report being built.

 private:
  void RunStep();
  /// RequestWakeAt(Now + resubmit_interval): the retry heartbeat after any
  /// paced send.
  void RequestResubmitWake();

  core::Environment* env_;
  graph::Ac2tGraph graph_;
  std::vector<Participant*> participants_;
  EngineConfig config_;
  std::string contract_kind_;

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

  /// The verdict and its settling secret, once Decide() ran.
  std::optional<crypto::CommitmentTag> decision_tag_;
  Bytes decision_secret_;

  TimePoint start_time_ = 0;
  bool started_ = false;
  bool done_ = false;
  bool coordinator_crash_fired_ = false;
  SwapReport report_;
};

}  // namespace ac3::protocols

#endif  // AC3_PROTOCOLS_ENGINE_BASE_H_
