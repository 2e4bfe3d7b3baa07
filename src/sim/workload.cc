#include "src/sim/workload.h"

#include <cassert>
#include <cmath>

namespace ac3::sim {

namespace {

/// Zipf exponent of participant popularity: the classic heavy tail.
constexpr double kZipfS = 1.1;
static_assert(kZipfS > 0.0 && kZipfS != 1.0,
              "SampleZipf's inverse CDF needs s > 0 and s != 1");
/// Rate multiplier of the bursty process's on phases.
constexpr double kBurstMultiplier = 4.0;
static_assert(kBurstMultiplier > 0.0);

/// Per-chain fee pressure: chain c's floor is kFeeFloor + c *
/// kFeeChainStep, and each transaction adds a uniform draw in
/// [0, kFeeSpread].
constexpr chain::Amount kFeeFloor = 1;
constexpr chain::Amount kFeeChainStep = 1;
constexpr chain::Amount kFeeSpread = 4;

/// Value moved by each swap leg.
constexpr chain::Amount kSwapAmount = 5;
/// Faucet grant size; a grant funds kGrantAmount / (kSwapAmount + max
/// fee) legs before the account needs re-funding.
constexpr chain::Amount kGrantAmount = 10'000;
/// Genesis faucet outputs per chain. More lanes shorten the faucet-change
/// dependency chains threaded through funding bursts.
constexpr size_t kFaucetLanes = 64;
static_assert(kFaucetLanes >= 1);
/// Value of each genesis faucet output.
constexpr chain::Amount kFaucetLaneValue = 1'000'000'000'000ULL;

/// Base of the key derivation: account k on any chain signs with
/// KeyPair::FromSeed(kKeySeedBase + 1 + k); the faucet uses kKeySeedBase
/// itself.
constexpr uint64_t kKeySeedBase = 0x5eed'0000'0000'0000ULL;

TimePoint ToTimePoint(double ms) {
  return static_cast<TimePoint>(std::llround(ms));
}

/// Chain slot `chain`'s fee floor.
chain::Amount FeeFloor(size_t chain) {
  return kFeeFloor + static_cast<chain::Amount>(chain) * kFeeChainStep;
}

}  // namespace

WorkloadGenerator::WorkloadGenerator(WorkloadConfig config, uint64_t seed)
    : config_(config),
      faucet_key_(crypto::KeyPair::FromSeed(kKeySeedBase)),
      arrival_rng_(0),
      entity_rng_(0) {
  assert(config_.chains >= 1);
  assert(config_.accounts >= 1);
  assert(config_.arrivals_per_sec > 0.0);
  // Independent streams: reshaping the arrival process never perturbs
  // which entities a given swap index picks, and vice versa.
  Rng root(seed);
  arrival_rng_ = root.Fork();
  entity_rng_ = root.Fork();
  slots_.resize(config_.chains);
  // Inverse-CDF constants over ranks [1, N+1] (continuous approximation
  // of the discrete Zipf; see SampleZipf).
  const double n1 = static_cast<double>(config_.accounts) + 1.0;
  zipf_q_ = std::pow(n1, 1.0 - kZipfS);
  if (config_.process == ArrivalProcess::kBursty) {
    assert(config_.burst_on_mean_ms > 0.0);
    assert(config_.burst_off_mean_ms > 0.0);
    // The traffic opens in an on phase, so short runs see arrivals.
    burst_on_ = true;
    current_on_start_ms_ = 0.0;
    phase_end_ms_ = arrival_rng_.NextExponential(config_.burst_on_mean_ms);
  }
}

std::vector<chain::TxOutput> WorkloadGenerator::GenesisAllocations(
    size_t chain) const {
  assert(chain < slots_.size());
  (void)chain;  // Identical per slot; the parameter documents intent.
  return std::vector<chain::TxOutput>(
      kFaucetLanes,
      chain::TxOutput{kFaucetLaneValue, faucet_key_.public_key()});
}

void WorkloadGenerator::BindChain(size_t chain, chain::ChainId chain_id,
                                  const chain::Transaction& genesis_tx) {
  assert(chain < slots_.size());
  ChainSlot& slot = slots_[chain];
  slot.chain_id = chain_id;
  slot.bound = true;
  const crypto::Hash256& genesis_id = genesis_tx.Id();
  slot.faucet_utxos.clear();
  slot.faucet_values.clear();
  const std::vector<chain::TxOutput>& outputs = genesis_tx.outputs();
  for (uint32_t i = 0; i < outputs.size(); ++i) {
    if (outputs[i].owner == faucet_key_.public_key()) {
      slot.faucet_utxos.push_back(chain::OutPoint{genesis_id, i});
      slot.faucet_values.push_back(outputs[i].value);
    }
  }
  assert(!slot.faucet_utxos.empty());
}

uint64_t WorkloadGenerator::SampleZipf(Rng* rng) const {
  const uint64_t n = config_.accounts;
  if (n <= 1) return 0;
  const double u = rng->NextDouble();
  // Continuous rank in [1, N+1), inverting
  // F(x) = (x^(1-s) - 1) / ((N+1)^(1-s) - 1).
  const double x = std::pow(u * (zipf_q_ - 1.0) + 1.0, 1.0 / (1.0 - kZipfS));
  uint64_t rank = static_cast<uint64_t>(x) - 1;
  if (rank >= n) rank = n - 1;
  return rank;
}

double WorkloadGenerator::NextArrival() {
  const double base_rate_per_ms = config_.arrivals_per_sec / 1000.0;
  if (config_.process == ArrivalProcess::kPoisson) {
    clock_ms_ += arrival_rng_.NextExponential(1.0 / base_rate_per_ms);
    return clock_ms_;
  }
  // Bursty: a Poisson process at multiplier * rate gated to on phases.
  // Discarding a draw that crosses the phase end is exact (the process is
  // memoryless), so phase boundaries never bias inter-arrival spacing.
  const double on_mean_ms = 1.0 / (base_rate_per_ms * kBurstMultiplier);
  while (true) {
    if (burst_on_) {
      const double dt = arrival_rng_.NextExponential(on_mean_ms);
      if (clock_ms_ + dt <= phase_end_ms_) {
        clock_ms_ += dt;
        return clock_ms_;
      }
      clock_ms_ = phase_end_ms_;
      burst_windows_.emplace_back(ToTimePoint(current_on_start_ms_),
                                  ToTimePoint(phase_end_ms_));
      burst_on_ = false;
      phase_end_ms_ =
          clock_ms_ + arrival_rng_.NextExponential(config_.burst_off_mean_ms);
    } else {
      clock_ms_ = phase_end_ms_;
      burst_on_ = true;
      current_on_start_ms_ = clock_ms_;
      phase_end_ms_ =
          clock_ms_ + arrival_rng_.NextExponential(config_.burst_on_mean_ms);
    }
  }
}

chain::Amount WorkloadGenerator::DrawFee(size_t chain) {
  return FeeFloor(chain) + entity_rng_.NextBelow(kFeeSpread + 1);
}

WorkloadGenerator::AccountState* WorkloadGenerator::EnsureFunded(
    ChainSlot* slot, size_t chain, uint64_t index, TimePoint arrival,
    WorkloadBatch* out) {
  auto it = slot->accounts.find(index);
  if (it == slot->accounts.end()) {
    // Lazy materialization: the key exists implicitly for every index in
    // the universe; wallet state is allocated only on first touch.
    it = slot->accounts
             .emplace(index,
                      AccountState{crypto::KeyPair::FromSeed(
                                       kKeySeedBase + 1 + index),
                                   chain::OutPoint{}, 0, 0, false})
             .first;
  }
  AccountState* account = &it->second;
  // A leg needs kSwapAmount + fee and at least 1 unit of change (so the
  // tracked output never degenerates to zero value).
  const chain::Amount min_balance =
      kSwapAmount + FeeFloor(chain) + kFeeSpread + 1;
  if (account->funded && account->balance >= min_balance) return account;

  // Faucet grant. Lanes rotate so back-to-back grants chain off distinct
  // change outputs instead of one serial dependency string.
  const size_t lane = slot->next_lane;
  slot->next_lane = (slot->next_lane + 1) % slot->faucet_utxos.size();
  const chain::Amount fee = DrawFee(chain);
  const chain::Amount lane_value = slot->faucet_values[lane];
  assert(lane_value >= kGrantAmount + fee + 1);

  chain::MutableTransaction grant;
  grant.type = chain::TxType::kTransfer;
  grant.chain_id = slot->chain_id;
  grant.inputs.push_back(slot->faucet_utxos[lane]);
  grant.outputs.push_back(
      chain::TxOutput{kGrantAmount, account->key.public_key()});
  grant.outputs.push_back(chain::TxOutput{lane_value - kGrantAmount - fee,
                                          faucet_key_.public_key()});
  grant.fee = fee;
  grant.nonce = slot->faucet_nonce++;
  grant.SignWith(faucet_key_);
  chain::Transaction sealed(std::move(grant));
  const crypto::Hash256& grant_id = sealed.Id();
  slot->faucet_utxos[lane] = chain::OutPoint{grant_id, 1};
  slot->faucet_values[lane] = lane_value - kGrantAmount - fee;
  // Any residual balance on a previously tracked output is abandoned as
  // dust — the harness tracks one spendable output per (account, chain).
  account->utxo = chain::OutPoint{grant_id, 0};
  account->balance = kGrantAmount;
  account->funded = true;
  out->txs.push_back(GeneratedTx{arrival, chain, sealed});
  return account;
}

chain::Transaction WorkloadGenerator::BuildLeg(ChainSlot* slot,
                                               AccountState* payer,
                                               const crypto::PublicKey& payee,
                                               chain::Amount amount,
                                               chain::Amount fee) {
  assert(payer->balance >= amount + fee + 1);
  chain::MutableTransaction tx;
  tx.type = chain::TxType::kTransfer;
  tx.chain_id = slot->chain_id;
  tx.inputs.push_back(payer->utxo);
  tx.outputs.push_back(chain::TxOutput{amount, payee});
  tx.outputs.push_back(
      chain::TxOutput{payer->balance - amount - fee, payer->key.public_key()});
  tx.fee = fee;
  tx.nonce = payer->nonce++;
  tx.SignWith(payer->key);
  chain::Transaction sealed(std::move(tx));
  payer->utxo = chain::OutPoint{sealed.Id(), 1};
  payer->balance -= amount + fee;
  return sealed;
}

WorkloadBatch WorkloadGenerator::NextBatch(TimePoint until) {
  for (const ChainSlot& slot : slots_) {
    assert(slot.bound && "BindChain every slot before NextBatch");
    (void)slot;
  }
  WorkloadBatch batch;
  while (true) {
    if (pending_arrival_ms_ < 0.0) pending_arrival_ms_ = NextArrival();
    const TimePoint arrival = ToTimePoint(pending_arrival_ms_);
    if (arrival > until) break;
    pending_arrival_ms_ = -1.0;

    // Participants: payer u pays payee v on chain_a, v pays u back on
    // chain_b — the two legs of the paper's atomic swap shape, here as
    // raw traffic (protocol contracts are exercised elsewhere).
    const uint64_t u = SampleZipf(&entity_rng_);
    uint64_t v = u;
    if (config_.accounts >= 2) {
      while (v == u) v = SampleZipf(&entity_rng_);
    }
    const size_t chain_a = static_cast<size_t>(
        entity_rng_.NextBelow(static_cast<uint64_t>(config_.chains)));
    const size_t chain_b =
        config_.chains >= 2
            ? (chain_a + 1 +
               static_cast<size_t>(entity_rng_.NextBelow(
                   static_cast<uint64_t>(config_.chains - 1)))) %
                  config_.chains
            : chain_a;

    SwapRecord record;
    record.swap_index = swaps_generated_++;
    record.arrival = arrival;
    record.chain_a = chain_a;
    record.chain_b = chain_b;

    // Leg A: u -> v on chain_a.
    {
      ChainSlot* slot = &slots_[chain_a];
      const chain::Amount fee = DrawFee(chain_a);
      AccountState* payer = EnsureFunded(slot, chain_a, u, arrival, &batch);
      const crypto::PublicKey payee =
          crypto::KeyPair::FromSeed(kKeySeedBase + 1 + v).public_key();
      chain::Transaction leg = BuildLeg(slot, payer, payee, kSwapAmount, fee);
      record.leg_a_id = leg.Id();
      batch.txs.push_back(GeneratedTx{arrival, chain_a, std::move(leg)});
    }
    // Leg B: v -> u on chain_b.
    {
      ChainSlot* slot = &slots_[chain_b];
      const chain::Amount fee = DrawFee(chain_b);
      AccountState* payer = EnsureFunded(slot, chain_b, v, arrival, &batch);
      const crypto::PublicKey payee =
          crypto::KeyPair::FromSeed(kKeySeedBase + 1 + u).public_key();
      chain::Transaction leg = BuildLeg(slot, payer, payee, kSwapAmount, fee);
      record.leg_b_id = leg.Id();
      batch.txs.push_back(GeneratedTx{arrival, chain_b, std::move(leg)});
    }
    batch.swaps.push_back(record);
  }
  return batch;
}

}  // namespace ac3::sim
