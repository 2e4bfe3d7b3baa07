// The HTLC baselines: Nolan's two-party atomic swap and Herlihy's
// single-leader generalization (Section 1; evaluated against AC3WN in
// Section 6).
//
// Protocol sketch (single leader L):
//   * L creates a secret s and hashlock h = H(s).
//   * Sequential publish phase: L publishes its outgoing HTLCs; every other
//     participant publishes its outgoing HTLCs only after all of its
//     incoming HTLCs are confirmed — Diam(D) sequential rounds (Figure 8).
//   * Sequential redeem phase: once every contract is confirmed, L redeems
//     its incoming contracts, revealing s on-chain. A participant that
//     observes s (a redeem call on one of its outgoing contracts) redeems
//     its own incoming contracts — another Diam(D) sequential rounds.
//   * Timelocks decrease along the publish order (t2 < t1 in the paper's
//     two-party walkthrough); a sender refunds after its timelock expires.
//
// The engine is a thin state machine over the reactive SwapEngineBase
// substrate: it advances when a watched chain's canonical head moves, a
// participant's connectivity changes, or a retry/timelock timer fires — so
// network delays, forks, and participant crashes shape what actually
// happens, including the paper's motivating atomicity violation (a crashed
// recipient misses its timelock and the sender refunds).
//
// Graphs that are not single-leader feasible (Figure 7) are rejected at
// Start() — the functional gap AC3WN closes (Section 5.3).

#ifndef AC3_PROTOCOLS_HERLIHY_SWAP_H_
#define AC3_PROTOCOLS_HERLIHY_SWAP_H_

#include <vector>

#include "src/core/environment.h"
#include "src/graph/ac2t_graph.h"
#include "src/protocols/engine_base.h"
#include "src/protocols/participant.h"
#include "src/protocols/swap_report.h"

namespace ac3::protocols {

/// Herlihy reads only the shared knobs: delta sets its timelocks.
using HtlcConfig = EngineConfig;

/// The leader-driven HTLC swap. Its coordinator-crash anchors: kAtPrepare
/// fires once the leader's outgoing contracts are all handed to the
/// network (its funds are committed); kAtCommit fires when every contract
/// is publicly recognized, before the leader redeems (so the secret s is
/// never revealed). Either strands the leader's outgoing contracts when it
/// never recovers — the blocking behavior the quorum-commit study measures.
class HerlihySwapEngine : public SwapEngineBase {
 public:
  /// `participants[i]` plays graph vertex i.
  HerlihySwapEngine(core::Environment* env, graph::Ac2tGraph graph,
                    std::vector<Participant*> participants, HtlcConfig config);

  uint32_t leader() const { return leader_; }
  const Bytes& secret() const { return secret_; }

 protected:
  Status OnStart() override;
  void Step() override;
  bool IsComplete() const override;
  size_t EdgeCount() const override { return edges_.size(); }
  EdgeState* Edge(size_t i) override { return &edges_[i]; }
  void FillVerdict(SwapReport* report) const override;
  Bytes ContractInit(EdgeState* edge) override;
  /// The leader publishes first; anyone else once all of its incoming
  /// contracts are publicly recognized.
  bool MayPublish(uint32_t u) const override;
  void OnEdgeSettled(EdgeState* edge) override;

 private:
  struct EdgeRt : EdgeState {
    uint32_t publish_step = 0;
    TimePoint timelock = 0;
    bool redeem_submitted = false;
    bool refund_submitted = false;
  };

  /// Redeems while the timelock is live, refunds after it expires; each
  /// call is submitted once.
  void SettleByTimelock(EdgeRt* rt);
  void ObserveSecrets();
  /// Fires the configured coordinator-crash schedule at its phase anchor.
  void MaybeCrashLeader();

  uint32_t leader_ = 0;
  Bytes secret_;
  crypto::Hash256 hashlock_;
  std::vector<EdgeRt> edges_;
  std::vector<bool> knows_secret_;
  TimePoint max_timelock_ = 0;
  /// When even never-published edges stop being waited for (IsComplete).
  TimePoint give_up_time_ = 0;
  bool reveal_marked_ = false;
};

}  // namespace ac3::protocols

#endif  // AC3_PROTOCOLS_HERLIHY_SWAP_H_
