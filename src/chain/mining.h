// The mining process: Poisson block production with propagation-delayed
// miner views, which is where forks come from.
//
// Chain-level block arrival is a Poisson process with the chain's mean
// block interval (the standard PoW model). At each arrival one of the
// miners wins; the wait and the winner are the world's schedule choices
// (sim::ChoiceSite::kInterval and kMiner). The winner builds on the
// heaviest block *it can see* — a block becomes visible to miner m only at
// (publish_time + gossip delay(block, m)). When two blocks land within a
// gossip window on the same parent, the chain forks naturally, and the
// longest-chain rule later resolves it — exactly the dynamics the witness
// network's depth-d discipline defends against (Section 4.2, Lemma 5.3).

#ifndef AC3_CHAIN_MINING_H_
#define AC3_CHAIN_MINING_H_

#include <queue>
#include <unordered_map>
#include <vector>

#include "src/chain/blockchain.h"
#include "src/chain/mempool.h"
#include "src/crypto/schnorr.h"
#include "src/sim/simulation.h"

namespace ac3::chain {

struct MiningConfig {
  /// Number of honest miners (distinct views / coinbase identities).
  int miner_count = 4;
  /// Maximum gossip delay; per-(block, miner) delays are deterministic
  /// uniform draws in [0, max].
  Duration max_propagation_delay = Milliseconds(40);
};

class MiningNetwork {
 public:
  MiningNetwork(sim::Simulation* sim, Blockchain* chain, Mempool* mempool,
                MiningConfig config);

  /// Begins producing blocks (schedules the first Poisson arrival).
  void Start();
  /// Stops after the current pending arrival is cancelled.
  void Stop();
  bool running() const { return running_; }

  /// Head visible to `miner` at `now`: the heaviest entry that is
  /// VisibleAt the miner by `now`. Incremental: each miner keeps a cursor
  /// into the chain's arrival feed plus a small pending-visibility heap, so
  /// a query costs O(new blocks x log pending) instead of a full-store
  /// scan. Requires a configured miner (0 <= miner < miner_count) and a
  /// `now` no earlier than that miner's previous query: visibility is
  /// monotone, so the incremental best would over-approximate the past.
  const BlockEntry* VisibleHead(int miner, TimePoint now) const;

  /// When `entry` becomes visible to `miner`: its arrival plus a
  /// deterministic per-(block, miner) gossip delay in [0, max], zero for
  /// the miner that produced it. The one visibility rule VisibleHead folds
  /// by.
  TimePoint VisibleAt(const BlockEntry& entry, int miner) const;

 private:
  /// Per-miner incremental view over the chain's arrival feed.
  struct MinerView {
    /// A block whose gossip has not yet reached this miner.
    struct Pending {
      TimePoint visible_at;
      const BlockEntry* entry;
      bool operator>(const Pending& other) const {
        return visible_at > other.visible_at;
      }
    };
    /// Next unseen index into Blockchain::arrival_order().
    size_t cursor = 0;
    /// Latest query time (VisibleHead's monotonicity precondition).
    TimePoint last_now = 0;
    /// Heaviest visible entry so far (visibility only ever grows).
    const BlockEntry* best = nullptr;
    std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>>
        pending;
  };

  void ScheduleNext();
  void ProduceBlock();

  sim::Simulation* sim_;
  Blockchain* chain_;
  Mempool* mempool_;
  MiningConfig config_;
  Rng rng_;
  std::vector<crypto::KeyPair> miner_keys_;
  /// Which miner produced each block (producers see their block at once).
  std::unordered_map<crypto::Hash256, int> producer_;
  /// Lazily grown per-miner trackers (logically const caches).
  mutable std::vector<MinerView> views_;
  sim::EventHandle pending_;
  bool running_ = false;
};

}  // namespace ac3::chain

#endif  // AC3_CHAIN_MINING_H_
