// Per-blockchain parameters, including the paper's Table 1 presets.
//
// Each simulated chain carries two groups of parameters:
//   * simulation parameters (block interval, PoW difficulty, block capacity)
//     that drive the in-process miners, and
//   * real-world metadata (tps from Table 1, 51%-attack cost Ch and blocks
//     per hour dh from Section 6.3) consumed by the analysis module.
//
// Simulated block intervals are scaled down (~1000x) so experiments run in
// milliseconds; ratios between chains are preserved, which is what the
// evaluation's *shape* depends on. Block capacity is sized such that
// measured simulator throughput / kThroughputScale reproduces Table 1.

#ifndef AC3_CHAIN_PARAMS_H_
#define AC3_CHAIN_PARAMS_H_

#include <cstdint>
#include <string>

#include "src/common/sim_time.h"

namespace ac3::chain {

/// Identifies a blockchain inside one simulation environment.
using ChainId = uint32_t;

/// Asset amounts, in the chain's smallest unit.
using Amount = uint64_t;

/// Measured-simulator-tps / paper-tps calibration factor (see header note).
constexpr double kThroughputScale = 10.0;

struct ChainParams {
  std::string name;
  ChainId id = 0;

  // --- simulation parameters -------------------------------------------
  /// Mean Poisson block inter-arrival in simulated ms.
  Duration block_interval = Milliseconds(600);
  /// Proof-of-work: required leading zero bits of the header double-hash.
  uint32_t difficulty_bits = 10;
  /// Maximum transactions per block (capacity; excludes the coinbase).
  size_t max_block_txs = 42;
  /// Depth at which a block is considered stable ("6 confirmations").
  uint32_t stable_depth = 6;

  // --- economics --------------------------------------------------------
  Amount block_reward = 50;
  Amount deploy_fee = 4;   ///< Paper §6.2: deploying SCw ≈ $4 at $300/ETH.
  Amount call_fee = 2;

  // --- real-world metadata (analysis module, §6.3–6.4) ------------------
  /// Transactions per second on the real network (Table 1).
  double real_tps = 7.0;
  /// Real blocks per hour (dh in §6.3).
  double real_blocks_per_hour = 6.0;
  /// Hourly 51%-attack rental cost in USD (Ch in §6.3, crypto51.app).
  double attack_cost_per_hour_usd = 300'000.0;
};

/// The top-4 permissionless cryptocurrencies by market cap (Table 1), plus
/// a generic witness-network preset. `id` is assigned by the environment.
ChainParams BitcoinParams();
ChainParams EthereumParams();
ChainParams LitecoinParams();
ChainParams BitcoinCashParams();
/// A small, fast chain used as a dedicated witness network in unit tests.
ChainParams TestWitnessParams();
/// A fast, roomy chain for unit tests.
ChainParams TestChainParams();

}  // namespace ac3::chain

#endif  // AC3_CHAIN_PARAMS_H_
