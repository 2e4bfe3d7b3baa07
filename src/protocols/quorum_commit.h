// QuorumCommit: a nonblocking, quorum-acknowledged commitment engine — the
// 3PC-style answer to the blocking failure the ROADMAP's separation study
// targets (Wang et al., arXiv:2001.01174; the mmts-longrange exemplar walks
// why plain 2PC blocks when the coordinator dies between prepare and
// commit).
//
// Protocol shape (epoch e's coordinator is vertex e mod n; quorum is a
// strict majority, n/2 + 1, coordinator included):
//
//   1. Prepare: every sender deploys its asset contract (a CentralizedSC
//      whose decision key is the swap's shared quorum key — see below), in
//      parallel. "Prepared" is publicly observable: the deploy is canonical
//      at confirm_depth.
//   2. Pre-commit: once every contract is publicly recognized (or patience
//      expires / a participant requests abort), the coordinator broadcasts
//      PRE-COMMIT(e, verdict). Members record (e, verdict) and acknowledge.
//   3. Commit: after a QUORUM of acknowledgements the coordinator signs the
//      decision secret with the quorum key and broadcasts it; any live
//      member that holds the secret can settle ANY edge (redeem pays the
//      recipient, refund the sender, whoever submits the call).
//
//   Recovery: when the epoch's coordinator is observed down for
//   takeover_timeout, the lowest live vertex advances to the next epoch it
//   coordinates and runs a state-collection round (STATE-REQ / STATE-REPLY)
//   over a quorum. Termination rule: a known decision is re-broadcast; else
//   the highest-epoch pre-committed verdict is resumed (quorum intersection
//   makes this consistent with any decision an old coordinator might have
//   signed); else the verdict is chosen fresh from chain observation. Epoch
//   fencing discards stale-epoch messages, so a late-recovering old
//   coordinator cannot drive a conflicting round.
//
// Why this is nonblocking where Herlihy/AC3TW are not: the pre-commit round
// replicates the tentative verdict across a majority BEFORE anyone can act
// on it, so any surviving majority can finish the protocol. With n = 2 a
// lone survivor is below quorum and correctly blocks — majority quorums
// need n >= 3 to tolerate a crash (tests pin this boundary).
//
// The shared quorum key stands in for a (t, n)-threshold signature: a real
// deployment would run DKG during swap setup so no single node could sign
// unilaterally. The simulation models the quorum rule itself (no decision
// secret exists before a majority acknowledged the verdict) in the engine's
// state machine, which is what the blocking-vs-nonblocking study measures.

#ifndef AC3_PROTOCOLS_QUORUM_COMMIT_H_
#define AC3_PROTOCOLS_QUORUM_COMMIT_H_

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "src/core/environment.h"
#include "src/crypto/commitment.h"
#include "src/crypto/multisig.h"
#include "src/graph/ac2t_graph.h"
#include "src/protocols/engine_base.h"
#include "src/protocols/participant.h"
#include "src/protocols/swap_report.h"

namespace ac3::protocols {

/// Knobs of the quorum-commit engine: the shared ones, the verdict rule's
/// abort triggers (its patience clock starts with the swap), and the
/// takeover timeout.
struct QuorumConfig : VerdictConfig {
  /// Survivors take over (advance the epoch) after observing the current
  /// coordinator down for this long: by default two message-latency bounds
  /// (2Δ), long enough to rule out transient drops, short enough that
  /// recovery dominates neither patience nor the deadline.
  Duration takeover_timeout = 2 * delta;
};

/// The nonblocking quorum-commit (3PC-style) engine — see the file comment
/// for the protocol shape and the recovery/termination rule. Its
/// coordinator-crash anchors fire on the current coordinator: kAtPrepare
/// as it fixes the verdict, before any other member learns it; kAtCommit
/// after a quorum acknowledged, before it signs.
class QuorumCommitEngine : public SwapEngineBase {
 public:
  /// `participants[i]` plays graph vertex i.
  QuorumCommitEngine(core::Environment* env, graph::Ac2tGraph graph,
                     std::vector<Participant*> participants,
                     QuorumConfig config);

  /// ms(D): the multisigned swap-graph id the contracts commit to.
  const crypto::Hash256& ms_id() const { return ms_id_; }
  /// The current epoch (0 until a takeover happens).
  uint64_t epoch() const { return epoch_; }
  /// The acknowledgement quorum: strict majority, n/2 + 1.
  int quorum() const;

 protected:
  Status OnStart() override;
  void Step() override;
  size_t EdgeCount() const override { return edges_.size(); }
  EdgeState* Edge(size_t i) override { return &edges_[i]; }
  /// A CentralizedSC whose decision key is the shared quorum key, so any
  /// holder of the signed decision can settle the edge.
  Bytes ContractInit(EdgeState* edge) override;
  /// The first live member that holds the signed decision settles, whoever
  /// the edge pays.
  Participant* SettleActor(const EdgeState& edge) const override;
  /// The five typed exchanges of the commit round: kStateReq answered by
  /// kStateReply (recovery state collection), kPreCommit answered by kAck
  /// (the acknowledgement round), and kDecision (secret dissemination).
  void OnMessage(const proto::Message& msg) override;
  /// Epoch fencing at the envelope layer: deliveries stamped with an epoch
  /// below the current one belong to a superseded round — a late-recovering
  /// old coordinator cannot drive a conflicting round.
  uint64_t MessageEpochFloor() const override { return epoch_; }

 private:
  /// What a member has recorded about the protocol round, replicated via
  /// PRE-COMMIT / DECIDE messages (engine-mediated per-vertex state; a
  /// crashed member's state survives its crash, exactly like a write-ahead
  /// log would).
  enum class MemberPhase : uint8_t {
    kWaiting,       // No pre-commit received yet.
    kPreCommitted,  // Recorded (epoch, verdict); acknowledged.
    kDecided,       // Holds the signed decision secret.
  };
  struct MemberState {
    uint64_t epoch = 0;            // Highest epoch this member recorded.
    MemberPhase phase = MemberPhase::kWaiting;
    crypto::CommitmentTag tag = crypto::CommitmentTag::kRedeem;
    bool knows_decision = false;   // Holds the signed decision secret.
  };
  using EdgeRt = EdgeState;

  uint32_t VertexCount() const;
  uint32_t CoordinatorOf(uint64_t epoch) const;
  /// Lowest live vertex that holds the signed decision, if any.
  Participant* FirstLiveKnower(uint32_t* vertex_out) const;
  bool DecisionKnownToLiveMember() const;

  /// Runs the coordinator side of the current epoch (recovery state
  /// collection, verdict choice, pre-commit round, decision broadcast) on
  /// behalf of CoordinatorOf(epoch_) when that vertex is up.
  void DriveCoordinator(TimePoint now);
  /// Advances the epoch to the lowest live successor after the takeover
  /// timeout expires with the coordinator down.
  void MaybeTakeOver(TimePoint now);
  void StartEpoch(uint64_t epoch, TimePoint now);
  /// Applies a PRE-COMMIT at member `v`; returns true when `v` supports
  /// (acknowledges) the verdict under epoch fencing.
  bool ApplyPreCommit(uint32_t v, uint64_t epoch, crypto::CommitmentTag tag);
  void SignDecision(uint32_t coordinator, TimePoint now);

  /// Paced broadcast primitives (one message stream is active at a time,
  /// so they share the retransmit pacer `last_broadcast_`).
  void BroadcastStateReq(uint32_t coordinator);
  void BroadcastPreCommit(uint32_t coordinator);
  void BroadcastDecision(uint32_t sender);

  QuorumConfig config_;
  crypto::Multisignature ms_;
  crypto::Hash256 ms_id_;
  /// Shared decision key, derived from ms(D) — see the file comment.
  std::optional<crypto::KeyPair> quorum_key_;

  std::vector<EdgeRt> edges_;
  std::vector<MemberState> members_;

  uint64_t epoch_ = 0;
  /// Recovery-epoch round state (meaningful on the current coordinator):
  /// each replying member's recorded state.
  std::map<uint32_t, MemberState> state_replies_;
  bool recovery_resolved_ = false;  // Termination rule applied for epoch_.
  /// Verdict the recovery termination rule forces (resumed pre-commit).
  std::optional<crypto::CommitmentTag> forced_tag_;
  /// Pre-commit round state for epoch_.
  bool precommit_active_ = false;
  crypto::CommitmentTag round_tag_ = crypto::CommitmentTag::kRedeem;
  std::set<uint32_t> acks_;
  bool precommit_marked_ = false;

  TimePoint last_broadcast_ = -1;
  TimePoint coordinator_down_since_ = -1;
};

}  // namespace ac3::protocols

#endif  // AC3_PROTOCOLS_QUORUM_COMMIT_H_
