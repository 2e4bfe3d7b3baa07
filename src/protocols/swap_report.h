// SwapReport: the per-run outcome record every experiment consumes.
//
// Captures what happened to each edge's contract, the phase timestamps the
// latency evaluation (Section 6.1) plots, the fees the cost evaluation
// (Section 6.2) sums, and — most importantly — the atomicity verdict: an
// AC2T is atomic iff it is NOT the case that some contract was redeemed
// while another was refunded (or stranded after a commit).

#ifndef AC3_PROTOCOLS_SWAP_REPORT_H_
#define AC3_PROTOCOLS_SWAP_REPORT_H_

#include <string>
#include <vector>

#include "src/chain/params.h"
#include "src/common/sim_time.h"
#include "src/crypto/hash256.h"
#include "src/graph/ac2t_graph.h"

namespace ac3::protocols {

enum class EdgeOutcome {
  kUnpublished,  ///< The sender never published the contract.
  kPublished,    ///< Locked but neither redeemed nor refunded (stranded).
  kRedeemed,
  kRefunded,
};

const char* EdgeOutcomeName(EdgeOutcome outcome);

struct EdgeReport {
  graph::Ac2tEdge edge;
  crypto::Hash256 contract_id;           ///< Zero if never published.
  EdgeOutcome outcome = EdgeOutcome::kUnpublished;
  TimePoint publish_submitted_at = -1;   ///< Deploy handed to the network.
  TimePoint published_at = -1;           ///< Deploy confirmed on chain.
  TimePoint settled_at = -1;             ///< Redeem/refund confirmed.
};

struct SwapReport {
  std::string protocol;
  /// The engine reached a terminal verdict before its deadline.
  bool finished = false;
  /// Commit decision reached (all-redeem path chosen).
  bool committed = false;
  /// Abort decision reached (all-refund path chosen).
  bool aborted = false;

  std::vector<EdgeReport> edges;

  TimePoint start_time = 0;
  /// When the commit/abort decision became effective (Trent's signature,
  /// SCw's buried state change, or the leader's secret release).
  TimePoint decision_time = -1;
  /// When the last contract settled.
  TimePoint end_time = -1;

  /// Total transaction fees paid by participants for this AC2T.
  chain::Amount total_fees = 0;

  /// Typed protocol messages the engine sent for this swap (registration,
  /// decision requests/replies, pre-commit rounds — NOT transaction
  /// gossip, which rides the same typed path but belongs to no swap). The
  /// per-protocol message-overhead study checks these against closed-form
  /// counts at zero loss.
  int64_t messages_sent = 0;
  /// Sum of the sent envelopes' EncodedSize() — the swap's wire bytes.
  int64_t message_bytes_sent = 0;
  /// Messages that re-entered the engine and were dispatched to OnMessage.
  int64_t messages_delivered = 0;
  /// Deliveries fenced before dispatch: exact duplicates of an already
  /// handled send (fault-injected re-deliveries) or stale-epoch traffic.
  int64_t messages_fenced = 0;

  /// Named phase-completion timestamps, in order — the raw data behind the
  /// Figure 8 / Figure 9 timelines.
  std::vector<std::pair<std::string, TimePoint>> phases;

  void MarkPhase(const std::string& name, TimePoint at) {
    phases.emplace_back(name, at);
  }

  /// End-to-end latency (tc - ts in the paper's Section 6.1 terms).
  Duration Latency() const { return end_time - start_time; }

  int CountOutcome(EdgeOutcome outcome) const;
  bool AllRedeemed() const;
  bool AllRefunded() const;

  /// The all-or-nothing property: violated when the published contracts
  /// settled inconsistently — some participant's asset moved while
  /// another's was returned (or stayed locked forever after a decision).
  bool AtomicityViolated() const;

  /// One-line human summary for harness output.
  std::string Summary() const;
};

}  // namespace ac3::protocols

#endif  // AC3_PROTOCOLS_SWAP_REPORT_H_
