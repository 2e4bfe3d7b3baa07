// The AC2T transaction graph D = (V, E) — Section 3.
//
// "V represents the participants in AC2T and E represents the
//  sub-transactions. A directed edge e = (u, v) represents a
//  sub-transaction that transfers an asset e.a from a source participant u
//  to a recipient participant v in some blockchain e.BC."
//
// The module also provides the graph-shape analysis behind Section 5.3:
// diameter (the latency driver of Section 6.1), cyclicity, connectivity,
// and the single-leader feasibility check that Nolan's/Herlihy's protocols
// depend on — AC3WN handles any shape; the baselines refuse the Figure 7
// graphs.

#ifndef AC3_GRAPH_AC2T_GRAPH_H_
#define AC3_GRAPH_AC2T_GRAPH_H_

#include <optional>
#include <string>
#include <vector>

#include "src/chain/params.h"
#include "src/common/bytes.h"
#include "src/common/random.h"
#include "src/common/sim_time.h"
#include "src/crypto/schnorr.h"

namespace ac3::graph {

/// One sub-transaction: participant `from` pays `amount` to participant
/// `to` on blockchain `chain_id` (indices into the participant list).
struct Ac2tEdge {
  uint32_t from = 0;
  uint32_t to = 0;
  chain::ChainId chain_id = 0;
  chain::Amount amount = 0;

  /// Wire order: the fields in declaration order.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.from, self.to, self.chain_id, self.amount);
  }
};

class Ac2tGraph {
 public:
  Ac2tGraph() = default;
  Ac2tGraph(std::vector<crypto::PublicKey> participants,
            std::vector<Ac2tEdge> edges, TimePoint timestamp);

  const std::vector<crypto::PublicKey>& participants() const {
    return participants_;
  }
  const std::vector<Ac2tEdge>& edges() const { return edges_; }
  /// "The timestamp t is important to distinguish between identical AC2Ts
  /// among the same participants."
  TimePoint timestamp() const { return timestamp_; }
  size_t participant_count() const { return participants_.size(); }
  size_t edge_count() const { return edges_.size(); }

  /// Basic well-formedness (indices in range, positive amounts, at least
  /// one edge, no self-loops).
  Status Validate() const;

  /// Wire order of (D, t), the message all participants multisign: the
  /// "ac3/graph" tag (a decode of anything else fails), t, then the
  /// counted participants and edges.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    std::string tag = kTag;
    codec(tag);
    codec.Check([&tag] {
      return tag == kTag ? Status::OK()
                         : Status::InvalidArgument("not a graph encoding");
    });
    codec(self.timestamp_, self.participants_, self.edges_);
  }

  // ------------------------------------------------------- shape analysis

  /// Diam(D): "the length of the longest path from any vertex in D to any
  /// other vertex in D including itself" — max over ordered pairs (u, v)
  /// (u == v meaning the shortest directed cycle through u) of the
  /// shortest-path length, ignoring unreachable pairs. The paper's smallest
  /// swap (two nodes, two edges) has Diam = 2.
  uint32_t Diameter() const;

  /// True when the directed graph contains a cycle.
  bool IsCyclic() const;

  /// True when the underlying undirected graph is connected.
  bool IsConnected() const;

  /// True when removing vertex `leader` leaves an acyclic graph — the
  /// feasibility condition of the single-leader protocols.
  bool AcyclicWithoutVertex(uint32_t leader) const;

  /// Some vertex whose removal leaves the graph acyclic, if any — a valid
  /// single leader for Nolan's / Herlihy's protocol (Section 5.3).
  std::optional<uint32_t> FindSingleLeader() const;

  /// Classification string for reports: "simple", "cyclic",
  /// "disconnected", ...
  std::string Describe() const;

 private:
  static constexpr char kTag[] = "ac3/graph";

  std::vector<std::vector<uint32_t>> Adjacency() const;

  std::vector<crypto::PublicKey> participants_;
  std::vector<Ac2tEdge> edges_;
  TimePoint timestamp_ = 0;
};

// --------------------------------------------------------- graph factories

/// Figure 4: Alice pays X on chain 0, Bob pays Y back on chain 1.
Ac2tGraph MakeTwoPartySwap(const crypto::PublicKey& alice,
                           const crypto::PublicKey& bob,
                           chain::ChainId chain_ab, chain::Amount amount_ab,
                           chain::ChainId chain_ba, chain::Amount amount_ba,
                           TimePoint timestamp);

/// A directed ring 0 -> 1 -> ... -> n-1 -> 0 (diameter n); a classic
/// multi-party swap.
Ac2tGraph MakeRing(const std::vector<crypto::PublicKey>& participants,
                   const std::vector<chain::ChainId>& chains,
                   chain::Amount amount, TimePoint timestamp);

/// A directed path 0 -> 1 -> ... -> n-1 (n-1 edges, diameter n-1): a
/// payment chain rather than a cycle — every vertex is a valid single
/// leader, so the HTLC baselines always accept it.
Ac2tGraph MakePath(const std::vector<crypto::PublicKey>& participants,
                   const std::vector<chain::ChainId>& chains,
                   chain::Amount amount, TimePoint timestamp);

/// A star centered on vertex 0: edges 0 -> i and i -> 0 for every leaf i
/// (2(n-1) edges, diameter 2). A hub swapping with n-1 spokes in one
/// AC2T; removing the hub leaves no edges, so the hub is a valid single
/// leader at any size.
Ac2tGraph MakeStar(const std::vector<crypto::PublicKey>& participants,
                   const std::vector<chain::ChainId>& chains,
                   chain::Amount amount, TimePoint timestamp);

/// The complete digraph: every ordered pair (u, v) is a sub-transaction
/// (n(n-1) edges, diameter 1). For n >= 3 removing ANY single vertex
/// still leaves a 2-cycle, so no single-leader protocol can run it —
/// together with the Figure 7 shapes this is the "Herlihy must reject,
/// AC3WN commits" family (Section 5.3).
Ac2tGraph MakeCompleteDigraph(
    const std::vector<crypto::PublicKey>& participants,
    const std::vector<chain::ChainId>& chains, chain::Amount amount,
    TimePoint timestamp);

/// A random *single-leader-feasible* digraph: the directed ring plus
/// random forward chords u -> v (0 < u < v), each kept with probability
/// `chord_prob`. Removing vertex 0 leaves only forward edges — a DAG — so
/// vertex 0 is a valid leader by construction, whatever the draw.
/// Deterministic for a given `rng` state.
Ac2tGraph MakeRandomFeasibleGraph(
    const std::vector<crypto::PublicKey>& participants,
    const std::vector<chain::ChainId>& chains, chain::Amount amount,
    double chord_prob, Rng* rng, TimePoint timestamp);

/// Figure 7(a): a bidirectional ring — cyclic no matter which single vertex
/// is removed, so no single-leader protocol can run it.
Ac2tGraph MakeFigure7aCyclic(const std::vector<crypto::PublicKey>& participants,
                             const std::vector<chain::ChainId>& chains,
                             chain::Amount amount, TimePoint timestamp);

/// Figure 7(b): two independent two-party swaps in one atomic AC2T
/// (disconnected graph).
Ac2tGraph MakeFigure7bDisconnected(
    const std::vector<crypto::PublicKey>& participants,
    const std::vector<chain::ChainId>& chains, chain::Amount amount,
    TimePoint timestamp);

}  // namespace ac3::graph

#endif  // AC3_GRAPH_AC2T_GRAPH_H_
