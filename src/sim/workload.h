// Open-world traffic generator: deterministic, replayable swap workloads
// at millions-of-accounts scale.
//
// The paper's experiments (Section 6) drive chains with synthetic swap
// traffic; this module is the open-loop ("open world") version of that
// harness: arrivals come from a stochastic process that does not wait for
// inclusion — exactly how real users hit a public mempool. Three things
// shape the traffic:
//
//  * Arrival process — Poisson (memoryless, `arrivals_per_sec`) or bursty
//    (an on/off modulated Poisson process: exponential on/off phase
//    durations, with the on-phase rate four times `arrivals_per_sec`).
//  * Account popularity — swap participants are drawn from a universe of
//    `accounts` keys (millions) with Zipf(1.1) popularity, so a few hot
//    accounts dominate while the long tail still materializes. Wallet
//    state is created lazily on first touch: a universe of 10M accounts
//    costs memory only for the accounts traffic actually hits.
//  * Fee pressure — per-chain fee floors plus a uniform spread, so
//    cross-chain legs compete for block space at different price points.
//
// A caller sets the chain count, the account universe, the arrival rate
// and process and the bursty phase lengths (WorkloadConfig). The Zipf
// exponent, the burst multiplier, the fees, the leg and grant amounts,
// the faucet lanes and the key derivation are constants of the generator
// (workload.cc).
//
// Every stochastic choice draws from forked common::Rng streams seeded by
// the constructor, so a (config, seed) pair replays bit-for-bit: same
// arrival times, same participants, same transaction bytes, same ids.
//
// Emitted transactions are fully valid signed transfers: each account's
// spendable output is tracked through the emission sequence (funding
// grants from a per-chain faucet are interleaved automatically), so a
// chain that includes the batch FIFO executes every leg successfully.

#ifndef AC3_SIM_WORKLOAD_H_
#define AC3_SIM_WORKLOAD_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/chain/transaction.h"
#include "src/common/random.h"
#include "src/common/sim_time.h"
#include "src/crypto/schnorr.h"

namespace ac3::sim {

/// Arrival process shape.
enum class ArrivalProcess : uint8_t {
  kPoisson = 0,  ///< Memoryless arrivals at `arrivals_per_sec`.
  kBursty = 1,   ///< On/off modulated Poisson (see WorkloadConfig).
};

/// The traffic shape a caller sets (see the header comment for the rest).
struct WorkloadConfig {
  /// Number of chains legs are spread over. A swap picks two distinct
  /// chains when >= 2; a single-chain config degrades to plain transfers.
  size_t chains = 2;
  /// Account universe size (keys exist implicitly; wallets materialize
  /// lazily on first touch). Millions are cheap — see the header comment.
  uint64_t accounts = 1'000'000;

  /// Mean swap arrivals per simulated second (both processes).
  double arrivals_per_sec = 200.0;
  ArrivalProcess process = ArrivalProcess::kPoisson;
  /// Bursty process: mean on/off phase durations (simulated ms). On
  /// phases run at four times `arrivals_per_sec` and off phases emit
  /// nothing, so the long-run average rate is
  ///   arrivals_per_sec * 4 * on / (on + off).
  double burst_on_mean_ms = 2'000.0;
  double burst_off_mean_ms = 6'000.0;
};

/// One emitted transaction with its arrival timestamp.
struct GeneratedTx {
  TimePoint arrival = 0;
  /// Index into the generator's chain slots (not the bound ChainId).
  size_t chain = 0;
  chain::Transaction tx;
};

/// Book-keeping for one generated swap: which two legs realize it.
struct SwapRecord {
  uint64_t swap_index = 0;
  TimePoint arrival = 0;
  size_t chain_a = 0;
  size_t chain_b = 0;
  crypto::Hash256 leg_a_id;
  crypto::Hash256 leg_b_id;
};

struct WorkloadBatch {
  /// All transactions (funding grants + swap legs) with arrival <= the
  /// NextBatch horizon, in arrival order. Per-chain sub-sequences are
  /// arrival-monotone, so Mempool::SubmitBatch takes its fast path.
  std::vector<GeneratedTx> txs;
  std::vector<SwapRecord> swaps;
};

/// Deterministic open-loop generator. See the header comment.
///
/// Usage:
///   WorkloadGenerator gen(config, seed);
///   for each chain c: create Blockchain with gen.GenesisAllocations(c),
///                     then gen.BindChain(c, chain->id(), chain->genesis_tx());
///   loop: WorkloadBatch batch = gen.NextBatch(horizon);
class WorkloadGenerator {
 public:
  WorkloadGenerator(WorkloadConfig config, uint64_t seed);

  const WorkloadConfig& config() const { return config_; }

  /// Faucet allocations for chain slot `chain` — pass as the Blockchain
  /// genesis allocations. Identical for every slot (the faucet lanes,
  /// each an output owned by the faucet key).
  std::vector<chain::TxOutput> GenesisAllocations(size_t chain) const;

  /// Binds chain slot `chain` to a live chain: records the ChainId
  /// stamped into generated transactions and the genesis transaction
  /// whose outputs are the faucet lanes. Must be called for every slot
  /// before the first NextBatch.
  void BindChain(size_t chain, chain::ChainId chain_id,
                 const chain::Transaction& genesis_tx);

  /// Emits every arrival with timestamp <= `until` (advancing the
  /// internal arrival clock), building funding grants and signed swap
  /// legs. Repeated calls with increasing horizons stream the same
  /// sequence a single big call would produce.
  WorkloadBatch NextBatch(TimePoint until);

  /// Swaps emitted so far.
  uint64_t swaps_generated() const { return swaps_generated_; }

  /// Closed on-phase windows [start, end) the bursty process has
  /// produced so far (empty for kPoisson) — duty-cycle test hook.
  const std::vector<std::pair<TimePoint, TimePoint>>& burst_windows() const {
    return burst_windows_;
  }

  /// Draws one Zipf(1.1) rank in [0, accounts) — exposed for
  /// distribution tests; NextBatch uses exactly this.
  uint64_t SampleZipf(Rng* rng) const;

 private:
  struct AccountState {
    crypto::KeyPair key;
    chain::OutPoint utxo;   ///< The account's tracked spendable output.
    chain::Amount balance = 0;
    uint64_t nonce = 0;
    bool funded = false;
  };
  struct ChainSlot {
    chain::ChainId chain_id = 0;
    bool bound = false;
    /// Faucet lane outputs (rotating change chain per lane).
    std::vector<chain::OutPoint> faucet_utxos;
    std::vector<chain::Amount> faucet_values;
    uint64_t faucet_nonce = 0;
    size_t next_lane = 0;
    /// Lazily materialized wallets, by account index.
    std::unordered_map<uint64_t, AccountState> accounts;
  };

  /// Advances the arrival clock by one inter-arrival draw (handling
  /// bursty phase boundaries); returns the next arrival instant.
  double NextArrival();

  /// Materializes (if needed) account `index` on `slot`, emitting a
  /// faucet grant into `out` when the balance cannot cover a leg.
  AccountState* EnsureFunded(ChainSlot* slot, size_t chain, uint64_t index,
                             TimePoint arrival, WorkloadBatch* out);

  /// Builds + signs one spend of `payer`'s tracked output: `amount` to
  /// `payee`, change (minus fee) back to the payer.
  chain::Transaction BuildLeg(ChainSlot* slot, AccountState* payer,
                              const crypto::PublicKey& payee,
                              chain::Amount amount, chain::Amount fee);

  chain::Amount DrawFee(size_t chain);

  WorkloadConfig config_;
  crypto::KeyPair faucet_key_;
  Rng arrival_rng_;
  Rng entity_rng_;
  std::vector<ChainSlot> slots_;
  double clock_ms_ = 0.0;  ///< Arrival clock (continuous, simulated ms).
  /// Arrival drawn past a NextBatch horizon, held for the next call so
  /// horizon partitioning never changes the emitted stream.
  double pending_arrival_ms_ = -1.0;
  // Bursty process state.
  bool burst_on_ = false;
  double phase_end_ms_ = 0.0;
  double current_on_start_ms_ = 0.0;
  std::vector<std::pair<TimePoint, TimePoint>> burst_windows_;
  uint64_t swaps_generated_ = 0;
  /// Zipf normalization is implicit in the inverse-CDF approximation; the
  /// cached power makes SampleZipf O(1).
  double zipf_q_ = 0.0;  ///< (accounts + 1)^(1 - s), s = 1.1.
};

}  // namespace ac3::sim

#endif  // AC3_SIM_WORKLOAD_H_
