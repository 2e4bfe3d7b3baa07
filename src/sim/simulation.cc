#include "src/sim/simulation.h"

#include <cassert>

namespace ac3::sim {

EventHandle Simulation::After(Duration delay, std::function<void()> fn) {
  assert(delay >= 0);
  return At(now_ + delay, std::move(fn));
}

EventHandle Simulation::At(TimePoint at, std::function<void()> fn) {
  assert(at >= now_);
  return queue_.Push(at, std::move(fn));
}

bool Simulation::Step() {
  auto event = queue_.PopNext();
  if (!event.has_value()) return false;
  // Advance the clock BEFORE running the callback, so code inside an event
  // observes Now() == its scheduled time.
  now_ = event->at;
  event->fn();
  ++events_executed_;
  return true;
}

TimePoint Simulation::RunUntil(TimePoint deadline) {
  while (queue_.NextTime() <= deadline) {
    if (!Step()) break;
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

Status Simulation::RunUntilCondition(const std::function<bool()>& predicate,
                                     TimePoint deadline) {
  if (predicate()) return Status::OK();
  while (queue_.NextTime() <= deadline) {
    if (!Step()) break;
    if (predicate()) return Status::OK();
  }
  if (now_ < deadline) now_ = deadline;
  return Status::Unavailable("condition not reached before deadline");
}

}  // namespace ac3::sim
