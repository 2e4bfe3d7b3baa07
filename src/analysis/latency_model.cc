#include "src/analysis/latency_model.h"

namespace ac3::analysis {

uint32_t HerlihyLatencyDeltas(uint32_t diameter) { return 2 * diameter; }

uint32_t Ac3wnLatencyDeltas() { return 4; }

uint32_t CrossoverDiameter() { return 2; }

}  // namespace ac3::analysis
