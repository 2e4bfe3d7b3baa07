// Priority event queue for the discrete-event simulator.
//
// Events are ordered by (time, insertion sequence) so simultaneous events
// run in deterministic FIFO order — a prerequisite for reproducible runs.

#ifndef AC3_SIM_EVENT_QUEUE_H_
#define AC3_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "src/common/sim_time.h"

namespace ac3::sim {

/// Cancellation handle for a scheduled event. Cheap to copy; cancelling an
/// already-fired event is a no-op.
class EventHandle {
 public:
  EventHandle() = default;
  explicit EventHandle(std::shared_ptr<bool> cancelled)
      : cancelled_(std::move(cancelled)) {}

  /// Prevents the event from firing (if it has not fired yet).
  void Cancel() {
    if (cancelled_) *cancelled_ = true;
  }
  bool valid() const { return cancelled_ != nullptr; }

 private:
  std::shared_ptr<bool> cancelled_;
};

/// Min-heap of timestamped callbacks.
class EventQueue {
 public:
  /// Enqueues `fn` to run at absolute time `at`.
  EventHandle Push(TimePoint at, std::function<void()> fn);

  /// True when no events remain (cancelled events may still occupy slots
  /// until popped).
  bool Empty() const { return heap_.empty(); }

  /// Time of the earliest live (non-cancelled) event; kTimeInfinity when
  /// empty. Discards cancelled events from the top as a side effect.
  TimePoint NextTime();

  /// A popped event ready to execute.
  struct Popped {
    TimePoint at;
    std::function<void()> fn;
  };

  /// Pops the earliest live event WITHOUT running it, so the caller can
  /// advance the clock first. Returns nullopt when empty.
  std::optional<Popped> PopNext();

 private:
  struct Event {
    TimePoint at;
    uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<bool> cancelled;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace ac3::sim

#endif  // AC3_SIM_EVENT_QUEUE_H_
