// Simulated message-passing network with latency, partitions, and crashes.
//
// The paper targets "asynchronous environments where crash failures and
// network delays are the norm" (Section 1). This model provides exactly the
// failure vocabulary the evaluation needs:
//   * per-message latency  = base + jitter (deterministic from the run RNG),
//   * node crashes         = a node neither receives messages nor runs its
//                            own scheduled actions while down,
//   * network partitions   = messages between different partition groups
//                            are dropped at delivery time.
//
// Delivery is "run the handler at the receiver": every message is a typed
// proto::Message envelope handed to SendMessage with the receiver's handler.
// Protocol engines react to deliveries, chain events, and the connectivity
// subscriptions below, retrying on timers as real blockchain clients do.

#ifndef AC3_SIM_NETWORK_H_
#define AC3_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/sim/simulation.h"

namespace ac3::proto {
struct Message;  // src/protocols/messages.h — the typed envelope.
}  // namespace ac3::proto

namespace ac3::sim {

/// Identifies an endpoint (participant, miner, witness service).
using NodeId = uint32_t;

/// Latency model parameters.
struct LatencyModel {
  Duration base = Milliseconds(50);
  Duration jitter = Milliseconds(50);  ///< Uniform extra in [0, jitter].
};

/// Per-message fault injection for SendMessage. All draws come from the
/// network's own forked run-RNG stream, and every draw is gated on its knob
/// being active — with the model at its all-zero default a send consumes
/// exactly one jitter draw, the sequence the golden fingerprints pin. Each
/// draw is a schedule choice (ChoiceSite::kJitter, kDuplicate, kDrop) that
/// the simulation's Chooser settles.
struct MessageFaults {
  double drop_prob = 0.0;       ///< P(a delivery copy is silently lost).
  double duplicate_prob = 0.0;  ///< P(one extra copy is delivered).
};

class Network {
 public:
  /// The network draws jitter from its own forked stream of `sim`'s RNG.
  Network(Simulation* sim, LatencyModel latency);

  /// Registers a node; returns its id.
  NodeId AddNode();

  size_t node_count() const { return nodes_.size(); }

  // ------------------------------------------------------------ liveness

  /// Marks a node crashed: it drops incoming messages and IsUp() reports
  /// false (actors must consult IsUp before acting — see FailureInjector).
  void Crash(NodeId id);
  /// Brings a crashed node back.
  void Recover(NodeId id);
  bool IsUp(NodeId id) const;

  // ---------------------------------------------------------- partitions

  /// Puts `id` into partition `group`. Nodes in different groups cannot
  /// exchange messages. Default group is 0 (fully connected).
  void SetPartition(NodeId id, uint32_t group);
  uint32_t partition(NodeId id) const;

  // ------------------------------------------------------------- sending

  /// Delivery callback of SendMessage.
  using MessageHandler = std::function<void(const proto::Message&)>;

  /// Routes `msg` from msg.sender to msg.receiver and runs `handler(msg)`
  /// at the receiver after the sampled latency, applying the armed
  /// per-message fault model (drop and duplication — see MessageFaults).
  /// Liveness and partition membership are evaluated at *delivery* time: a
  /// copy whose receiver is then crashed or partitioned away from the
  /// sender is silently dropped (`dropped_count` increments).
  void SendMessage(const proto::Message& msg, MessageHandler handler);

  /// Arms (or clears, with the default) the per-message fault model.
  void set_message_faults(const MessageFaults& faults) { faults_ = faults; }

  uint64_t delivered_count() const { return delivered_count_; }
  uint64_t dropped_count() const { return dropped_count_; }

  // -------------------------------------------- connectivity subscriptions

  /// Fires whenever a node's connectivity changes: crash, recovery, or a
  /// partition move. Reactive protocol engines subscribe so a recovered
  /// participant acts on the state it missed instead of being found by the
  /// next fixed-interval poll. Callbacks run synchronously inside the
  /// mutating call; they must not re-enter the network's mutators.
  using ConnectivityListener = std::function<void(NodeId)>;
  using SubscriptionId = uint64_t;
  SubscriptionId SubscribeConnectivity(ConnectivityListener listener);
  /// Unknown ids are ignored (idempotent).
  void UnsubscribeConnectivity(SubscriptionId id);

 private:
  struct NodeState {
    bool up = true;
    uint32_t partition = 0;
  };

  void NotifyConnectivity(NodeId id);
  /// One copy's latency: base plus the chosen jitter.
  Duration SampleLatency();
  /// Whether the fault of `site`, armed with probability `p`, strikes. A
  /// disarmed fault (p == 0) draws nothing and asks nothing.
  bool FaultStrikes(ChoiceSite site, double p);

  Simulation* sim_;
  LatencyModel latency_;
  Rng rng_;
  MessageFaults faults_;
  std::vector<NodeState> nodes_;
  std::vector<std::pair<SubscriptionId, ConnectivityListener>>
      connectivity_listeners_;
  SubscriptionId next_subscription_id_ = 1;
  uint64_t delivered_count_ = 0;
  uint64_t dropped_count_ = 0;
};

}  // namespace ac3::sim

#endif  // AC3_SIM_NETWORK_H_
