// The discrete-event simulation kernel.
//
// A Simulation owns the virtual clock and the event queue. Everything in
// the system — miners, participants, witnesses, the network — advances by
// scheduling callbacks. The kernel is single-threaded and deterministic:
// given the same seed and the same schedule of calls, a run is reproducible
// bit-for-bit (docs/architecture.md, "The three load-bearing design
// decisions", decision 2).

#ifndef AC3_SIM_SIMULATION_H_
#define AC3_SIM_SIMULATION_H_

#include <functional>

#include "src/common/random.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/sim/chooser.h"
#include "src/sim/event_queue.h"

namespace ac3::sim {

class Simulation {
 public:
  /// `seed` drives every random draw in the run.
  explicit Simulation(uint64_t seed) : rng_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time.
  TimePoint Now() const { return now_; }

  /// Root RNG; subsystems should Fork() their own stream from it.
  Rng* rng() { return &rng_; }

  /// Installs the chooser every schedule choice asks (src/sim/chooser.h);
  /// nullptr restores the default, which keeps each draw. Not owned: it
  /// must outlive the run. Install it before the first choice, that is
  /// before mining starts and before the first send.
  void set_chooser(Chooser* chooser) {
    chooser_ = chooser != nullptr ? chooser : &default_chooser_;
  }

  /// The value `site` uses, given what its own stream `drawn`.
  uint64_t Choose(ChoiceSite site, uint64_t drawn) {
    return chooser_->Choose(site, drawn);
  }

  /// Schedules `fn` to run `delay` ms from now (delay >= 0).
  EventHandle After(Duration delay, std::function<void()> fn);

  /// Schedules `fn` at absolute time `at` (>= Now()).
  EventHandle At(TimePoint at, std::function<void()> fn);

  /// Runs events until the queue drains or `deadline` is passed. Events at
  /// exactly `deadline` still run. Returns the final virtual time.
  TimePoint RunUntil(TimePoint deadline);

  /// Runs until `predicate()` becomes true (checked after every event) or
  /// `deadline` passes. Returns OK if the predicate fired.
  Status RunUntilCondition(const std::function<bool()>& predicate,
                           TimePoint deadline);

  /// Number of events executed so far (for tests / reporting).
  uint64_t events_executed() const { return events_executed_; }

 private:
  /// Executes the next event (advancing the clock first). False when empty.
  bool Step();

  EventQueue queue_;
  TimePoint now_ = kTimeZero;
  Rng rng_;
  Chooser default_chooser_;
  Chooser* chooser_ = &default_chooser_;
  uint64_t events_executed_ = 0;
};

}  // namespace ac3::sim

#endif  // AC3_SIM_SIMULATION_H_
