// AC3WN: the paper's contribution — atomic cross-chain commitment
// coordinated by a permissionless witness network (Section 4.2).
//
// The four phases of Figure 9:
//   1. SCw deployment: a participant registers ms(D) plus the agreed shape
//      of every asset contract in a WitnessSC on the witness chain.
//   2. Parallel deployment: every sender publishes its PermissionlessSC
//      (Algorithm 4) concurrently — redemption/refund conditioned on SCw's
//      state at depth >= d.
//   3. SCw state change: once all contracts are publicly recognized, any
//      participant submits AuthorizeRedeem with Section 4.3 evidence of
//      every deployment; the witness miners verify and record RDauth. (Or
//      AuthorizeRefund when someone declines / changes her mind.)
//   4. Parallel settlement: once the state-change receipt is buried under d
//      witness blocks, every recipient redeems (or every sender refunds)
//      with receipt evidence.
//
// The engine is a thin state machine over the reactive SwapEngineBase
// substrate: it advances on canonical-head movements of the asset and
// witness chains, connectivity changes, and retry/patience timers, so
// crash failures, network delays, and witness-chain forks shape what
// happens; the depth-d discipline (participants ignore unburied SCw
// states) is what Lemma 5.3's atomicity argument rests on.
//
// Commitment (the second protocol obligation): after a decision, the engine
// never gives up on a published contract — a participant that crashes and
// later recovers still settles, because the commitment-scheme secret is the
// witness chain itself, not a timelock.

#ifndef AC3_PROTOCOLS_AC3WN_SWAP_H_
#define AC3_PROTOCOLS_AC3WN_SWAP_H_

#include <vector>

#include "src/contracts/permissionless_contract.h"
#include "src/contracts/witness_contract.h"
#include "src/core/environment.h"
#include "src/graph/ac2t_graph.h"
#include "src/protocols/engine_base.h"
#include "src/protocols/participant.h"
#include "src/protocols/swap_report.h"

namespace ac3::protocols {

/// AC3WN's knobs: the shared ones, the verdict rule's abort triggers (its
/// patience clock starts when SCw confirms), and the burial depth d.
struct Ac3wnConfig : VerdictConfig {
  /// d: burial depth required of the SCw state change before anyone acts on
  /// it (Section 4.2 / Section 6.3's d > Va*dh/Ch rule).
  uint32_t witness_depth_d = 2;
};

/// The witness-network engine. Its coordinator-crash anchors: kAtPrepare
/// crashes the registrar the moment SCw confirms; kAtCommit crashes the
/// requester as it is about to submit the SCw state change. AC3WN survives
/// both — any live participant takes the role over and rebuilds the call
/// with its own funds — which is exactly the contrast the quorum-commit
/// study draws against the blocking baselines.
class Ac3wnSwapEngine : public SwapEngineBase {
 public:
  /// `witness_chain` selects which permissionless network coordinates this
  /// AC2T (Section 5.2: different AC2Ts may use different witnesses).
  Ac3wnSwapEngine(core::Environment* env, graph::Ac2tGraph graph,
                  std::vector<Participant*> participants,
                  chain::ChainId witness_chain, Ac3wnConfig config);

  chain::ChainId witness_chain() const { return witness_chain_; }
  const crypto::Hash256& scw_id() const { return scw_id_; }

 protected:
  Status OnStart() override;
  void Step() override;
  size_t EdgeCount() const override { return edges_.size(); }
  EdgeState* Edge(size_t i) override { return &edges_[i]; }
  /// Algorithm 4's constructor arguments, conditioned on this SCw at depth d.
  Bytes ContractInit(EdgeState* edge) override;
  /// Receipt evidence of the buried SCw state change, proven against the
  /// witness checkpoint the edge's contract stores.
  Result<Bytes> SettleArgs(const EdgeState& edge) const override;
  chain::Amount ExtraFees() const override;

 private:
  struct EdgeRt : EdgeState {
    contracts::EdgeSpec spec;
    contracts::PermissionlessInit init;
  };

  /// Phase 1: build + deploy SCw from the first live participant.
  void TryDeployWitnessContract();
  void TrackWitnessDeployment();
  /// Phase 3: submit the SCw state change toward `tag` (AuthorizeRedeem
  /// with Section 4.3 evidence of every deployment, or AuthorizeRefund).
  void TryAuthorize(crypto::CommitmentTag tag);
  /// Detects the canonical, buried SCw state change and decides on it.
  void TrackDecision();

  chain::ChainId witness_chain_;
  Ac3wnConfig config_;

  crypto::Multisignature ms_;

  // Phase-1 state.
  GossipedTx scw_deploy_;
  crypto::Hash256 scw_id_;
  bool scw_confirmed_ = false;
  /// When SCw confirmed — the publish-patience clock starts here.
  TimePoint scw_confirmed_at_ = 0;

  // Phase-3 state: one state-change call per verdict. A call is rebuilt
  // whenever the first live participant changes, so a crashed requester's
  // call is taken over by a live one.
  GossipedTx authorize_redeem_;
  GossipedTx authorize_refund_;

  /// The decision transaction once observed canonical + buried >= d.
  crypto::Hash256 decision_tx_id_;

  std::vector<EdgeRt> edges_;
};

}  // namespace ac3::protocols

#endif  // AC3_PROTOCOLS_AC3WN_SWAP_H_
