// Failure injection: the experiment knob behind the paper's headline claim.
//
// The case against HTLC protocols (Section 1): "if Bob fails to provide s to
// SC1 before t1 expires due to a crash failure or a network partitioning at
// Bob's site, Bob loses his X bitcoins." The injector schedules exactly such
// crash windows and partition windows, and protocol actors consult it (via
// Network::IsUp) before taking any action.

#ifndef AC3_SIM_FAILURE_H_
#define AC3_SIM_FAILURE_H_

#include "src/common/sim_time.h"
#include "src/sim/network.h"
#include "src/sim/simulation.h"

namespace ac3::sim {

/// One planned crash window for a node.
struct CrashWindow {
  NodeId node = 0;
  TimePoint start = 0;
  /// Exclusive end; kTimeInfinity = never recovers.
  TimePoint end = kTimeInfinity;
};

/// One planned partition window: `node` is isolated in its own group.
struct PartitionWindow {
  NodeId node = 0;
  TimePoint start = 0;
  TimePoint end = kTimeInfinity;
};

/// Schedules crash / recovery and partition / heal events on the network.
class FailureInjector {
 public:
  FailureInjector(Simulation* sim, Network* network)
      : sim_(sim), network_(network) {}

  /// Crashes `node` during [start, end). Recovery is scheduled at `end`
  /// when finite.
  void ScheduleCrash(const CrashWindow& window);

  /// Isolates `node` into its own partition group during [start, end).
  void SchedulePartition(const PartitionWindow& window);

  /// Convenience: crash `node` at `at` for `duration` ms.
  void CrashFor(NodeId node, TimePoint at, Duration duration);

 private:
  Simulation* sim_;
  Network* network_;
  uint32_t next_partition_group_ = 1;
};

}  // namespace ac3::sim

#endif  // AC3_SIM_FAILURE_H_
