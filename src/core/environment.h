// The simulation environment: chains + miners + network + failures in one
// place — the "multi-blockchain world" every experiment runs in.
//
// An Environment owns the discrete-event kernel, the message-passing
// network (participants talk to chains through it, so submissions suffer
// latency and crash/partition loss), and any number of blockchains, each
// with its own mempool and Poisson mining network.
//
// Mempool hygiene is event-driven: every chain's mempool is subscribed to
// its blockchain's canonical-head movements, so transactions included on
// the canonical branch are pruned in one batch per head move (extension or
// reorg) instead of by ad-hoc calls. On a reorg, the user transactions of
// the blocks reorged *off* the canonical branch that the winning branch
// does not hold go back into the pool, stamped with the arrival time of
// the orphaned block that held them. Protocol engines also re-gossip their
// own unconfirmed transactions, the at-least-once submission model the
// simulator assumes.

#ifndef AC3_CORE_ENVIRONMENT_H_
#define AC3_CORE_ENVIRONMENT_H_

#include <memory>
#include <vector>

#include "src/chain/blockchain.h"
#include "src/chain/mempool.h"
#include "src/chain/mining.h"
#include "src/sim/failure.h"
#include "src/sim/network.h"
#include "src/sim/simulation.h"

namespace ac3::core {

class Environment {
 public:
  /// Messages take 20 ms plus a uniform jitter of up to 10 ms.
  explicit Environment(uint64_t seed);

  sim::Simulation* sim() { return &sim_; }
  sim::Network* network() { return &network_; }
  sim::FailureInjector* failures() { return &failures_; }

  /// Creates a blockchain; `params.id` is overwritten with the assigned id.
  /// `allocations` fund the genesis block (experiment participants).
  chain::ChainId AddChain(chain::ChainParams params,
                          std::vector<chain::TxOutput> allocations,
                          chain::MiningConfig mining = chain::MiningConfig{});

  size_t chain_count() const { return chains_.size(); }
  /// Accessors return nullptr for unknown chain ids.
  chain::Blockchain* blockchain(chain::ChainId id);
  const chain::Blockchain* blockchain(chain::ChainId id) const;
  chain::Mempool* mempool(chain::ChainId id);
  chain::MiningNetwork* miners(chain::ChainId id);

  /// Starts / stops every chain's miners.
  void StartMining();
  void StopMining();

  /// Registers an end-user endpoint on the network.
  sim::NodeId AddUserNode();

  /// Sends `tx` from `from` to the chain's gateway as a typed kTxSubmit
  /// envelope; it reaches the mempool after network latency unless dropped
  /// (crash / partition / injected message loss).
  void SubmitTransaction(sim::NodeId from, chain::ChainId id,
                         const chain::Transaction& tx);

 private:
  struct ChainRuntime {
    std::unique_ptr<chain::Blockchain> blockchain;
    std::unique_ptr<chain::Mempool> mempool;
    std::unique_ptr<chain::MiningNetwork> miners;
    sim::NodeId gateway = 0;
  };

  sim::Simulation sim_;
  sim::Network network_;
  sim::FailureInjector failures_;
  std::vector<ChainRuntime> chains_;
  /// Envelope seq for gossip submissions (informational — the mempool
  /// dedups by transaction id, not by seq).
  uint64_t next_gossip_seq_ = 1;
};

}  // namespace ac3::core

#endif  // AC3_CORE_ENVIRONMENT_H_
