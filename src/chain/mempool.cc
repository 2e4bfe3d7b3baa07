#include "src/chain/mempool.h"

#include <algorithm>

namespace ac3::chain {

Status Mempool::Submit(const Transaction& tx, TimePoint arrival) {
  const crypto::Hash256& id = tx.Id();
  if (ids_.count(id) > 0) {
    return Status::AlreadyExists("transaction already in mempool");
  }
  Entry entry{arrival, tx};
  if (entries_.empty() || entries_.back().arrival <= arrival) {
    entries_.push_back(std::move(entry));  // The production (monotone) path.
  } else {
    // Out-of-order arrival (tests, replays): keep the sort stable so equal
    // arrivals preserve submission order.
    auto at = std::upper_bound(
        entries_.begin(), entries_.end(), arrival,
        [](TimePoint t, const Entry& e) { return t < e.arrival; });
    entries_.insert(at, std::move(entry));
  }
  ids_.insert(id);
  return Status::OK();
}

Mempool::BatchResult Mempool::SubmitBatch(std::span<const Transaction> txs,
                                          TimePoint arrival) {
  BatchResult result;
  if (!entries_.empty() && entries_.back().arrival > arrival) {
    // Out-of-order arrival (tests, replays): the per-entry insert position
    // matters, so delegate to the stable-sort Submit path.
    for (const Transaction& tx : txs) {
      if (Submit(tx, arrival).ok()) ++result.accepted;
    }
    return result;
  }
  // Monotone (production) path: every accepted entry appends, so both
  // containers grow at most once for the whole batch.
  entries_.reserve(entries_.size() + txs.size());
  ids_.reserve(ids_.size() + txs.size());
  for (const Transaction& tx : txs) {
    // Covers in-batch duplicates too.
    if (!ids_.insert(tx.Id()).second) continue;
    entries_.push_back(Entry{arrival, tx});
    ++result.accepted;
  }
  return result;
}

void Mempool::Prune(std::span<const crypto::Hash256> included) {
  // Unindex first: O(1) per id, and ids not in the pool cost one lookup.
  size_t dropped = 0;
  for (const crypto::Hash256& id : included) dropped += ids_.erase(id);
  if (dropped == 0) return;
  // Compact survivors — an entry survives iff its id is still indexed
  // (entries_ and ids_ are exact mirrors).
  size_t keep = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (ids_.count(entries_[i].tx.Id()) == 0) continue;
    if (keep != i) entries_[keep] = std::move(entries_[i]);
    ++keep;
  }
  entries_.resize(keep);
}

std::vector<const Transaction*> Mempool::CandidatePointersAt(
    TimePoint now, const TxFilter& already_included) const {
  std::vector<const Transaction*> out;
  for (const Entry& entry : entries_) {
    if (entry.arrival > now) break;  // Sorted: nothing later is visible.
    if (already_included && already_included(entry.tx.Id())) continue;
    out.push_back(&entry.tx);
  }
  return out;
}

}  // namespace ac3::chain
