#include "src/graph/ac2t_graph.h"

#include <algorithm>
#include <deque>
#include <functional>

namespace ac3::graph {

Ac2tGraph::Ac2tGraph(std::vector<crypto::PublicKey> participants,
                     std::vector<Ac2tEdge> edges, TimePoint timestamp)
    : participants_(std::move(participants)),
      edges_(std::move(edges)),
      timestamp_(timestamp) {}

Status Ac2tGraph::Validate() const {
  if (participants_.size() < 2) {
    return Status::InvalidArgument("an AC2T needs at least two participants");
  }
  if (edges_.empty()) {
    return Status::InvalidArgument("an AC2T needs at least one edge");
  }
  for (const Ac2tEdge& e : edges_) {
    if (e.from >= participants_.size() || e.to >= participants_.size()) {
      return Status::OutOfRange("edge endpoint out of range");
    }
    if (e.from == e.to) {
      return Status::InvalidArgument("self transfers are not sub-transactions");
    }
    if (e.amount == 0) {
      return Status::InvalidArgument("edges must transfer a positive asset");
    }
  }
  for (const crypto::PublicKey& pk : participants_) {
    if (!pk.IsValid()) {
      return Status::InvalidArgument("invalid participant key");
    }
  }
  return Status::OK();
}

std::vector<std::vector<uint32_t>> Ac2tGraph::Adjacency() const {
  std::vector<std::vector<uint32_t>> adj(participants_.size());
  for (const Ac2tEdge& e : edges_) adj[e.from].push_back(e.to);
  return adj;
}

uint32_t Ac2tGraph::Diameter() const {
  const size_t n = participants_.size();
  const auto adj = Adjacency();
  uint32_t diameter = 0;
  constexpr uint32_t kInf = UINT32_MAX;

  for (uint32_t source = 0; source < n; ++source) {
    // BFS distances; dist[source] here means "shortest directed cycle
    // through source" (the paper's 'including itself'), so it starts
    // unknown and is filled in when the BFS returns to the source.
    std::vector<uint32_t> dist(n, kInf);
    std::deque<uint32_t> queue;
    // Seed with the source's out-neighbours at distance 1.
    for (uint32_t next : adj[source]) {
      if (next == source) continue;
      if (dist[next] == kInf) {
        dist[next] = 1;
        queue.push_back(next);
      } else {
        dist[next] = std::min(dist[next], 1u);
      }
    }
    uint32_t cycle = adj[source].empty() ? kInf : kInf;
    while (!queue.empty()) {
      uint32_t u = queue.front();
      queue.pop_front();
      for (uint32_t v : adj[u]) {
        if (v == source) {
          cycle = std::min(cycle, dist[u] + 1);
          continue;
        }
        if (dist[v] == kInf) {
          dist[v] = dist[u] + 1;
          queue.push_back(v);
        }
      }
    }
    for (uint32_t v = 0; v < n; ++v) {
      if (v != source && dist[v] != kInf) diameter = std::max(diameter, dist[v]);
    }
    if (cycle != kInf) diameter = std::max(diameter, cycle);
  }
  return diameter;
}

bool Ac2tGraph::IsCyclic() const {
  const size_t n = participants_.size();
  const auto adj = Adjacency();
  // Colors: 0 = unvisited, 1 = on stack, 2 = done.
  std::vector<int> color(n, 0);
  std::function<bool(uint32_t)> dfs = [&](uint32_t u) -> bool {
    color[u] = 1;
    for (uint32_t v : adj[u]) {
      if (color[v] == 1) return true;
      if (color[v] == 0 && dfs(v)) return true;
    }
    color[u] = 2;
    return false;
  };
  for (uint32_t u = 0; u < n; ++u) {
    if (color[u] == 0 && dfs(u)) return true;
  }
  return false;
}

bool Ac2tGraph::IsConnected() const {
  const size_t n = participants_.size();
  if (n == 0) return true;
  std::vector<std::vector<uint32_t>> undirected(n);
  for (const Ac2tEdge& e : edges_) {
    undirected[e.from].push_back(e.to);
    undirected[e.to].push_back(e.from);
  }
  std::vector<bool> seen(n, false);
  std::deque<uint32_t> queue{0};
  seen[0] = true;
  size_t count = 1;
  while (!queue.empty()) {
    uint32_t u = queue.front();
    queue.pop_front();
    for (uint32_t v : undirected[u]) {
      if (!seen[v]) {
        seen[v] = true;
        ++count;
        queue.push_back(v);
      }
    }
  }
  return count == n;
}

bool Ac2tGraph::AcyclicWithoutVertex(uint32_t leader) const {
  std::vector<Ac2tEdge> remaining;
  for (const Ac2tEdge& e : edges_) {
    if (e.from != leader && e.to != leader) remaining.push_back(e);
  }
  Ac2tGraph reduced(participants_, remaining, timestamp_);
  return !reduced.IsCyclic();
}

std::optional<uint32_t> Ac2tGraph::FindSingleLeader() const {
  for (uint32_t v = 0; v < participants_.size(); ++v) {
    if (AcyclicWithoutVertex(v)) return v;
  }
  return std::nullopt;
}

std::string Ac2tGraph::Describe() const {
  std::string out;
  out += IsConnected() ? "connected" : "disconnected";
  out += IsCyclic() ? ", cyclic" : ", acyclic";
  out += FindSingleLeader().has_value() ? ", single-leader-feasible"
                                        : ", no-single-leader";
  return out;
}

Ac2tGraph MakeTwoPartySwap(const crypto::PublicKey& alice,
                           const crypto::PublicKey& bob,
                           chain::ChainId chain_ab, chain::Amount amount_ab,
                           chain::ChainId chain_ba, chain::Amount amount_ba,
                           TimePoint timestamp) {
  return Ac2tGraph({alice, bob},
                   {Ac2tEdge{0, 1, chain_ab, amount_ab},
                    Ac2tEdge{1, 0, chain_ba, amount_ba}},
                   timestamp);
}

namespace {
chain::ChainId ChainFor(const std::vector<chain::ChainId>& chains, size_t i) {
  return chains[i % chains.size()];
}
}  // namespace

Ac2tGraph MakeRing(const std::vector<crypto::PublicKey>& participants,
                   const std::vector<chain::ChainId>& chains,
                   chain::Amount amount, TimePoint timestamp) {
  std::vector<Ac2tEdge> edges;
  const uint32_t n = static_cast<uint32_t>(participants.size());
  for (uint32_t i = 0; i < n; ++i) {
    edges.push_back(Ac2tEdge{i, (i + 1) % n, ChainFor(chains, i), amount});
  }
  return Ac2tGraph(participants, edges, timestamp);
}

Ac2tGraph MakePath(const std::vector<crypto::PublicKey>& participants,
                   const std::vector<chain::ChainId>& chains,
                   chain::Amount amount, TimePoint timestamp) {
  std::vector<Ac2tEdge> edges;
  const uint32_t n = static_cast<uint32_t>(participants.size());
  for (uint32_t i = 0; i + 1 < n; ++i) {
    edges.push_back(Ac2tEdge{i, i + 1, ChainFor(chains, i), amount});
  }
  return Ac2tGraph(participants, edges, timestamp);
}

Ac2tGraph MakeStar(const std::vector<crypto::PublicKey>& participants,
                   const std::vector<chain::ChainId>& chains,
                   chain::Amount amount, TimePoint timestamp) {
  std::vector<Ac2tEdge> edges;
  const uint32_t n = static_cast<uint32_t>(participants.size());
  for (uint32_t i = 1; i < n; ++i) {
    edges.push_back(Ac2tEdge{0, i, ChainFor(chains, 2 * (i - 1)), amount});
    edges.push_back(Ac2tEdge{i, 0, ChainFor(chains, 2 * (i - 1) + 1), amount});
  }
  return Ac2tGraph(participants, edges, timestamp);
}

Ac2tGraph MakeCompleteDigraph(
    const std::vector<crypto::PublicKey>& participants,
    const std::vector<chain::ChainId>& chains, chain::Amount amount,
    TimePoint timestamp) {
  std::vector<Ac2tEdge> edges;
  const uint32_t n = static_cast<uint32_t>(participants.size());
  size_t chain_cursor = 0;
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v = 0; v < n; ++v) {
      if (u == v) continue;
      edges.push_back(Ac2tEdge{u, v, ChainFor(chains, chain_cursor++), amount});
    }
  }
  return Ac2tGraph(participants, edges, timestamp);
}

Ac2tGraph MakeRandomFeasibleGraph(
    const std::vector<crypto::PublicKey>& participants,
    const std::vector<chain::ChainId>& chains, chain::Amount amount,
    double chord_prob, Rng* rng, TimePoint timestamp) {
  Ac2tGraph ring = MakeRing(participants, chains, amount, timestamp);
  std::vector<Ac2tEdge> edges = ring.edges();
  const uint32_t n = static_cast<uint32_t>(participants.size());
  size_t chain_cursor = edges.size();
  // Forward chords only (u < v, neither incident edge closing a cycle that
  // avoids vertex 0): the subgraph without vertex 0 stays a DAG, so the
  // graph remains single-leader feasible with leader 0 for every draw.
  for (uint32_t u = 1; u < n; ++u) {
    for (uint32_t v = u + 2; v < n; ++v) {
      if (rng->NextBool(chord_prob)) {
        edges.push_back(
            Ac2tEdge{u, v, ChainFor(chains, chain_cursor++), amount});
      }
    }
  }
  return Ac2tGraph(participants, edges, timestamp);
}

Ac2tGraph MakeFigure7aCyclic(
    const std::vector<crypto::PublicKey>& participants,
    const std::vector<chain::ChainId>& chains, chain::Amount amount,
    TimePoint timestamp) {
  std::vector<Ac2tEdge> edges;
  const uint32_t n = static_cast<uint32_t>(participants.size());
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t j = (i + 1) % n;
    edges.push_back(Ac2tEdge{i, j, ChainFor(chains, 2 * i), amount});
    edges.push_back(Ac2tEdge{j, i, ChainFor(chains, 2 * i + 1), amount});
  }
  return Ac2tGraph(participants, edges, timestamp);
}

Ac2tGraph MakeFigure7bDisconnected(
    const std::vector<crypto::PublicKey>& participants,
    const std::vector<chain::ChainId>& chains, chain::Amount amount,
    TimePoint timestamp) {
  // Pairs (0,1), (2,3), ... each swap in isolation; one atomic AC2T.
  std::vector<Ac2tEdge> edges;
  for (uint32_t i = 0; i + 1 < participants.size(); i += 2) {
    edges.push_back(Ac2tEdge{i, i + 1, ChainFor(chains, i), amount});
    edges.push_back(Ac2tEdge{i + 1, i, ChainFor(chains, i + 1), amount});
  }
  return Ac2tGraph(participants, edges, timestamp);
}

}  // namespace ac3::graph
