// AC3TW: the centralized-trusted-witness atomic cross-chain commitment
// protocol (Section 4.1) — the stepping stone between HTLC swaps and AC3WN.
//
// Protocol steps (paper, end of Section 4.1):
//   1. Participants construct D and multisign (D, t) -> ms(D).
//   2. A participant registers ms(D) at Trent.
//   3+4. All participants publish their CentralizedSC contracts
//        (Algorithm 2) concurrently — no sequential rounds.
//   5. After every contract is published, a participant requests the
//      redemption secret; Trent signs (ms(D), RD) iff all contracts are
//      deployed and the value for ms(D) is still ⊥.
//   6. If someone declines (or a participant changes its mind), any
//      participant requests the refund secret; Trent signs (ms(D), RF) iff
//      the value is still ⊥.
//
// Atomicity holds because Trent's store makes the two signatures mutually
// exclusive. The protocol's weakness — Trent is a trusted single point of
// failure — is directly observable here: crash Trent (failure injector) and
// every request is lost until he recovers.
//
// The engine is a thin state machine over the reactive SwapEngineBase
// substrate: it advances on canonical-head movements, connectivity
// changes, Trent's (possibly lost) replies, and retry timers — no
// fixed-interval polling.

#ifndef AC3_PROTOCOLS_AC3TW_SWAP_H_
#define AC3_PROTOCOLS_AC3TW_SWAP_H_

#include <vector>

#include "src/core/environment.h"
#include "src/graph/ac2t_graph.h"
#include "src/protocols/engine_base.h"
#include "src/protocols/participant.h"
#include "src/protocols/swap_report.h"
#include "src/protocols/trent.h"

namespace ac3::protocols {

/// AC3TW reads the shared knobs and the verdict rule's abort triggers; its
/// patience clock starts at registration.
using Ac3twConfig = VerdictConfig;

/// The Trent-witnessed engine. Its coordinator-crash anchors: kAtPrepare
/// fires the moment the swap registers (participants then lock funds into
/// contracts whose only decision point is dead); kAtCommit fires as the
/// first decision request is sent, before Trent can sign either secret.
/// Without a recovery, no decision ever exists and every published
/// contract strands — the blocking behavior the quorum-commit study
/// measures.
class Ac3twSwapEngine : public SwapEngineBase {
 public:
  Ac3twSwapEngine(core::Environment* env, graph::Ac2tGraph graph,
                  std::vector<Participant*> participants,
                  TrustedWitness* trent, Ac3twConfig config);

  const crypto::Hash256& ms_id() const { return ms_id_; }

 protected:
  Status OnStart() override;
  void Step() override;
  size_t EdgeCount() const override { return edges_.size(); }
  EdgeState* Edge(size_t i) override { return &edges_[i]; }
  Bytes ContractInit(EdgeState* edge) override;
  /// The four typed exchanges of steps 2 and 5/6: kPrepare (register at
  /// Trent) answered by kAck, and kRedeemNotify (secret request) answered
  /// by kDecision carrying Trent's signature.
  void OnMessage(const proto::Message& msg) override;

 private:
  using EdgeRt = EdgeState;

  void TryRegister();
  /// Sends a redeem- or refund-secret request from the first live
  /// participant; the response arrives via the network (or is lost).
  void RequestDecision(crypto::CommitmentTag tag);

  TrustedWitness* trent_;
  Ac3twConfig config_;

  crypto::Multisignature ms_;
  crypto::Hash256 ms_id_;
  bool registered_ = false;
  /// When registration completed — the publish-patience clock starts here.
  TimePoint registered_at_ = 0;
  TimePoint last_register_attempt_ = -1;
  TimePoint last_request_attempt_ = -1;
  std::vector<EdgeRt> edges_;
};

}  // namespace ac3::protocols

#endif  // AC3_PROTOCOLS_AC3TW_SWAP_H_
