#include "src/sim/network.h"

#include <cassert>
#include <memory>
#include <utility>

// Include-only dependency: SendMessage copies the envelope, so it needs the
// complete type; no ac3_protocols symbol is referenced, so the module link
// graph gains no sim -> protocols edge.
#include "src/protocols/messages.h"

namespace ac3::sim {

Network::Network(Simulation* sim, LatencyModel latency)
    : sim_(sim), latency_(latency), rng_(sim->rng()->Fork()) {}

NodeId Network::AddNode() {
  nodes_.push_back(NodeState{/*up=*/true, /*partition=*/0});
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Network::Crash(NodeId id) {
  nodes_.at(id).up = false;
  NotifyConnectivity(id);
}

void Network::Recover(NodeId id) {
  nodes_.at(id).up = true;
  NotifyConnectivity(id);
}

bool Network::IsUp(NodeId id) const { return nodes_.at(id).up; }

void Network::SetPartition(NodeId id, uint32_t group) {
  nodes_.at(id).partition = group;
  NotifyConnectivity(id);
}

Network::SubscriptionId Network::SubscribeConnectivity(
    ConnectivityListener listener) {
  const SubscriptionId id = next_subscription_id_++;
  connectivity_listeners_.emplace_back(id, std::move(listener));
  return id;
}

void Network::UnsubscribeConnectivity(SubscriptionId id) {
  std::erase_if(connectivity_listeners_,
                [id](const auto& entry) { return entry.first == id; });
}

void Network::NotifyConnectivity(NodeId id) {
  // Iterate by index: a listener may subscribe another listener (growing
  // the vector) but unsubscription mid-notification is not supported.
  for (size_t i = 0; i < connectivity_listeners_.size(); ++i) {
    connectivity_listeners_[i].second(id);
  }
}

uint32_t Network::partition(NodeId id) const { return nodes_.at(id).partition; }

Duration Network::SampleLatency() {
  if (latency_.jitter <= 0) return latency_.base;
  const auto bound = static_cast<uint64_t>(latency_.jitter);
  const uint64_t jitter =
      sim_->Choose(ChoiceSite::kJitter, rng_.NextBelow(bound + 1));
  assert(jitter <= bound);
  return latency_.base + static_cast<Duration>(jitter);
}

bool Network::FaultStrikes(ChoiceSite site, double p) {
  if (p <= 0) return false;
  const uint64_t strikes = sim_->Choose(site, rng_.NextBool(p) ? 1 : 0);
  assert(strikes <= 1);
  return strikes == 1;
}

void Network::SendMessage(const proto::Message& msg, MessageHandler handler) {
  const NodeId from = msg.sender;
  const NodeId to = msg.receiver;
  assert(from < nodes_.size() && to < nodes_.size());
  // Draw order is fixed and every fault draw is gated on its knob, so the
  // all-zero fault model consumes exactly one jitter sample per send — the
  // RNG sequence the golden fingerprints pin.
  const int copies =
      FaultStrikes(ChoiceSite::kDuplicate, faults_.duplicate_prob) ? 2 : 1;
  auto shared = std::make_shared<const proto::Message>(msg);
  for (int copy = 0; copy < copies; ++copy) {
    const Duration latency = SampleLatency();
    if (FaultStrikes(ChoiceSite::kDrop, faults_.drop_prob)) {
      ++dropped_count_;
      continue;
    }
    sim_->After(latency, [this, from, to, shared, handler]() {
      // A node that crashes (or is cut off) mid-flight still loses the copy.
      if (!nodes_[to].up ||
          nodes_[from].partition != nodes_[to].partition) {
        ++dropped_count_;
        return;
      }
      ++delivered_count_;
      handler(*shared);
    });
  }
}

}  // namespace ac3::sim
