// Mempool: pending transactions awaiting inclusion.
//
// End-users "multicast their transaction messages to mining nodes"
// (Section 2.1); the mempool models the union of miners' pending sets with
// per-transaction arrival times — a miner assembling at time t only sees
// transactions that arrived by t.
//
// Entries are kept sorted by (arrival, submission order) — production
// submissions arrive in nondecreasing time, so inserts are O(1) appends —
// which lets candidate selection stop at the first not-yet-visible entry
// instead of scanning and re-sorting the whole pool. Ids are hash-indexed
// for O(1) duplicate checks and one-pass pruning.

#ifndef AC3_CHAIN_MEMPOOL_H_
#define AC3_CHAIN_MEMPOOL_H_

#include <functional>
#include <span>
#include <unordered_set>
#include <vector>

#include "src/chain/transaction.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"

namespace ac3::chain {

class Mempool {
 public:
  /// A caller's exclusion predicate: true for a transaction id the
  /// candidate list should leave out. Production passes none: assembly
  /// skips a transaction already on its branch by the branch's UTXO set
  /// (Blockchain::AssembleBlock).
  using TxFilter = std::function<bool(const crypto::Hash256&)>;

  /// Queues `tx`; duplicates by id are rejected.
  Status Submit(const Transaction& tx, TimePoint arrival);

  /// Outcome of one SubmitBatch call.
  struct BatchResult {
    size_t accepted = 0;  ///< Transactions queued.
  };

  /// Queues a batch sharing one arrival time — the open-world ingestion
  /// path (a node draining its network queue once per tick). Semantically
  /// identical to calling Submit(tx, arrival) on each element in order
  /// (in-batch duplicates reject like cross-batch ones), but the id index
  /// and entry vector grow once for the whole batch and the duplicate
  /// check is a single pass.
  BatchResult SubmitBatch(std::span<const Transaction> txs, TimePoint arrival);

  /// Transactions visible at `now` for which `already_included` returns
  /// false (a null filter excludes nothing), in arrival order — as
  /// pointers into the pool, so a miner inspecting hundreds of candidates
  /// per block copies none of the rejects. Pointers are invalidated by the
  /// next Submit/SubmitBatch/Prune.
  std::vector<const Transaction*> CandidatePointersAt(
      TimePoint now, const TxFilter& already_included) const;

  /// Drops entries whose ids appear in `included` (canonical cleanup), an
  /// arbitrary id list (unsorted, duplicates and unknown ids allowed). Ids
  /// are unindexed first (O(1) hash erases); the entry vector is compacted
  /// only when something was actually dropped.
  void Prune(std::span<const crypto::Hash256> included);

  size_t size() const { return entries_.size(); }
  bool Contains(const crypto::Hash256& tx_id) const {
    return ids_.count(tx_id) > 0;
  }

 private:
  struct Entry {
    TimePoint arrival;
    Transaction tx;
  };
  /// Sorted by arrival; equal arrivals keep submission order.
  std::vector<Entry> entries_;
  std::unordered_set<crypto::Hash256> ids_;
};

}  // namespace ac3::chain

#endif  // AC3_CHAIN_MEMPOOL_H_
