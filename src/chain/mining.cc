#include "src/chain/mining.h"

#include <cassert>
#include <span>

#include "src/chain/pow.h"
#include "src/common/logging.h"

namespace ac3::chain {

MiningNetwork::MiningNetwork(sim::Simulation* sim, Blockchain* chain,
                             Mempool* mempool, MiningConfig config)
    : sim_(sim),
      chain_(chain),
      mempool_(mempool),
      config_(config),
      rng_(sim->rng()->Fork()) {
  assert(config_.miner_count > 0);
  for (int i = 0; i < config_.miner_count; ++i) {
    miner_keys_.push_back(crypto::KeyPair::Generate(&rng_));
  }
}

void MiningNetwork::Start() {
  if (running_) return;
  running_ = true;
  ScheduleNext();
}

void MiningNetwork::Stop() {
  running_ = false;
  pending_.Cancel();
}

void MiningNetwork::ScheduleNext() {
  const double mean =
      static_cast<double>(chain_->params().block_interval);
  const auto drawn = static_cast<Duration>(rng_.NextExponential(mean)) + 1;
  const auto wait = static_cast<Duration>(sim_->Choose(
      sim::ChoiceSite::kInterval, static_cast<uint64_t>(drawn)));
  assert(wait >= 1);
  pending_ = sim_->After(wait, [this]() { ProduceBlock(); });
}

TimePoint MiningNetwork::VisibleAt(const BlockEntry& entry, int miner) const {
  auto producer_it = producer_.find(entry.hash);
  if (producer_it != producer_.end() && producer_it->second == miner) {
    return entry.arrival_time;  // Producers see their own block instantly.
  }
  if (config_.max_propagation_delay <= 0) return entry.arrival_time;
  // Deterministic per-(block, miner) delay so replays are reproducible.
  uint64_t state = entry.hash.Prefix64() ^
                   (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(miner + 1));
  uint64_t draw = SplitMix64(&state);
  return entry.arrival_time +
         static_cast<Duration>(
             draw % (static_cast<uint64_t>(config_.max_propagation_delay) + 1));
}

const BlockEntry* MiningNetwork::VisibleHead(int miner, TimePoint now) const {
  assert(miner >= 0 && miner < config_.miner_count);
  if (views_.empty()) views_.resize(static_cast<size_t>(config_.miner_count));
  MinerView& view = views_[static_cast<size_t>(miner)];
  assert(now >= view.last_now);
  view.last_now = now;
  if (view.best == nullptr) view.best = chain_->genesis();

  // The fold is a max under ForkChoicePrefers; visibility is monotone in
  // `now`, so folding each block exactly once as it becomes visible
  // reproduces the full scan's answer.
  auto consider = [&](const BlockEntry* entry) {
    if (ForkChoicePrefers(*entry, *view.best)) view.best = entry;
  };

  const std::vector<const BlockEntry*>& feed = chain_->arrival_order();
  for (; view.cursor < feed.size(); ++view.cursor) {
    const BlockEntry* entry = feed[view.cursor];
    const TimePoint visible_at = VisibleAt(*entry, miner);
    if (visible_at <= now) {
      consider(entry);
    } else {
      view.pending.push(MinerView::Pending{visible_at, entry});
    }
  }
  while (!view.pending.empty() && view.pending.top().visible_at <= now) {
    consider(view.pending.top().entry);
    view.pending.pop();
  }
  return view.best;
}

void MiningNetwork::ProduceBlock() {
  if (!running_) return;
  const TimePoint now = sim_->Now();
  const auto miners = static_cast<uint64_t>(config_.miner_count);
  const uint64_t chosen =
      sim_->Choose(sim::ChoiceSite::kMiner, rng_.NextBelow(miners));
  assert(chosen < miners);
  const auto miner = static_cast<int>(chosen);
  const BlockEntry* parent = VisibleHead(miner, now);

  // No duplicate filter here: AssembleBlock's selection loop already skips
  // on-branch transactions, whose inputs are spent, without consuming
  // block capacity. Pointer candidates: rejected entries are never copied
  // out of the pool (the pool is not mutated between here and assembly).
  std::vector<const Transaction*> candidates =
      mempool_->CandidatePointersAt(now, Mempool::TxFilter());
  auto block = chain_->AssembleBlock(
      parent->hash, std::span<const Transaction* const>(candidates),
      miner_keys_[miner].public_key(), now, &rng_);
  if (block.ok()) {
    const crypto::Hash256 hash = block->header.Hash();
    Status submitted = chain_->SubmitBlock(std::move(*block), now);
    if (submitted.ok()) {
      producer_[hash] = miner;
    } else {
      AC3_WARN << chain_->params().name
               << ": submit failed: " << submitted.ToString();
    }
  }
  ScheduleNext();
}

}  // namespace ac3::chain
