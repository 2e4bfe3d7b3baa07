#include "src/sim/failure.h"

namespace ac3::sim {

void FailureInjector::ScheduleCrash(const CrashWindow& window) {
  sim_->At(window.start, [this, node = window.node]() {
    network_->Crash(node);
  });
  if (window.end != kTimeInfinity) {
    sim_->At(window.end, [this, node = window.node]() {
      network_->Recover(node);
    });
  }
}

void FailureInjector::SchedulePartition(const PartitionWindow& window) {
  const uint32_t group = next_partition_group_++;
  sim_->At(window.start, [this, node = window.node, group]() {
    network_->SetPartition(node, group);
  });
  if (window.end != kTimeInfinity) {
    sim_->At(window.end, [this, node = window.node]() {
      network_->SetPartition(node, 0);
    });
  }
}

void FailureInjector::CrashFor(NodeId node, TimePoint at, Duration duration) {
  ScheduleCrash(CrashWindow{node, at, at + duration});
}

}  // namespace ac3::sim
