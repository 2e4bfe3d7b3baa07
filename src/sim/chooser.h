// The one seam for a world's schedule choices.
//
// Two runs of one world differ only where the simulation leaves a value to
// chance: a message copy's jitter, whether a message is duplicated, whether
// a copy is dropped, the wait before a chain's next block, and the miner
// that wins it. Each of these five sites draws from its own Rng stream, in
// a fixed order and under its own gate, and then asks the world's Chooser
// which value to use. The default keeps the draw, so a run is what its seed
// makes it. A test installs a double through Simulation::set_chooser to
// record a run's choices or to replay a list of them.
//
// Draws that are not schedule choices (stream forks, keys, secrets, nonce
// start offsets) never pass through here; every site still draws before it
// asks, so those streams stay aligned whatever the chooser answers.

#ifndef AC3_SIM_CHOOSER_H_
#define AC3_SIM_CHOOSER_H_

#include <cstdint>

namespace ac3::sim {

/// The five places where a world's schedule is chosen.
enum class ChoiceSite : uint8_t {
  kJitter,     ///< A message copy's extra latency in ms, at most the jitter.
  kDuplicate,  ///< 1 when a message is delivered twice, else 0.
  kDrop,       ///< 1 when a message copy is lost, else 0.
  kInterval,   ///< The wait in ms before a chain's next block, at least 1.
  kMiner,      ///< The miner that wins a block, below the miner count.
};

/// Picks the value each site uses. The base class is the default: it keeps
/// the value the site's own stream drew.
class Chooser {
 public:
  virtual ~Chooser() = default;

  /// The value `site` uses; `drawn` is what the site's stream just drew.
  /// The site asserts that the answer is in its range.
  virtual uint64_t Choose(ChoiceSite /*site*/, uint64_t drawn) {
    return drawn;
  }
};

}  // namespace ac3::sim

#endif  // AC3_SIM_CHOOSER_H_
