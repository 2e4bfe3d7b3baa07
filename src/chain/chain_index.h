// ChainIndex: the block-entry store and chain-global query indexes behind
// one narrow facade.
//
// The fork-tree store (hash -> entry) and both hot query indexes (tx ->
// occurrences, contract -> entries with calls) live here behind FindEntry
// / FindTx / FindCall / OccurrencesOf / EntryCount, with no raw map
// accessor, so no caller depends on the backing containers. Those are
// three plain std::unordered_maps: node-based, so a stored entry never
// moves, which the parent links, head pointers and occurrence lists rely
// on.
//
// The occurrence index holds only what someone asks about: every coinbase,
// deploy and call, and the transfers a caller watched (Watch) before they
// were mined. Validation needs no more: a repeated transfer, deploy or call
// fails on its spent inputs, so only the coinbase, which spends none, is
// looked up on the branch (Blockchain::ValidateAgainstParent). A node
// indexing every transfer it stores would pay an entry per transaction for
// lookups nobody makes; Bitcoin Core ships its -txindex off for the same
// reason.
//
// Branch awareness stays out: ChainIndex knows every fork-sibling
// occurrence of an indexed transaction, but *which* occurrence is canonical
// depends on the head, so the canonical-filtering queries take an
// `on_branch` predicate from the Blockchain. That keeps the facade a pure
// index — no head pointer, no ancestry logic — and keeps the longest-chain
// rule in exactly one place: ForkChoicePrefers (pow.h), which the
// Blockchain's head, the mining network's visible heads and the light
// client's head all call.

#ifndef AC3_CHAIN_CHAIN_INDEX_H_
#define AC3_CHAIN_CHAIN_INDEX_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/chain/block.h"

namespace ac3::chain {

/// A contract call included in a block (index into block.txs).
struct CallRecord {
  /// The contract the call targeted.
  crypto::Hash256 contract_id;
  /// The function invoked (e.g. "redeem").
  std::string function;
  /// Index of the calling transaction within its block.
  uint32_t tx_index = 0;
  /// Whether the call's receipt reported success.
  bool success = false;
};

/// A validated block plus branch-local derived data.
///
/// Branch-cumulative data is chained, not materialized: each entry keeps
/// only its own block plus a `parent` link and a skip pointer for
/// O(log height) ancestor jumps, so storing a block costs O(block size)
/// instead of O(chain length). "Is this indexed transaction on the
/// branch?" is answered by Blockchain::TxOnBranch through the ChainIndex
/// occurrence lists; the branch's UTXO set answers it for everything
/// else. An entry holds no ledger state: the Blockchain keeps the states of
/// some entries and replays the rest (Blockchain::StateAt).
struct BlockEntry {
  /// The validated block itself.
  Block block;
  /// The block's header hash (its identity in the store).
  crypto::Hash256 hash;
  /// Cumulative expected work from genesis (longest-chain metric).
  double total_work = 0;
  /// When the block reached the store (simulated time).
  TimePoint arrival_time = 0;
  /// First-seen order; ties in total work keep the earlier block.
  uint64_t arrival_seq = 0;
  /// Parent entry (nullptr for genesis). Entry pointers are stable.
  const BlockEntry* parent = nullptr;
  /// Ancestor jump pointer (Bitcoin's pskip scheme) for GetAncestor.
  const BlockEntry* skip = nullptr;
  /// Number of transactions included on this branch, genesis..this block.
  uint64_t included_tx_count = 0;
  /// Contract calls in this block (for watching redeem/refund events).
  std::vector<CallRecord> calls;

  /// The block's height (shorthand for block.header.height).
  uint64_t height() const { return block.header.height; }
};

/// One on-chain location of a transaction: the entry holding it and the
/// transaction's index inside that entry's block. Also the unit of the
/// occurrence lists — a transaction may occur in several fork-sibling
/// blocks, but at most once per branch.
struct TxLocation {
  /// The entry whose block includes the transaction.
  const BlockEntry* entry = nullptr;
  /// The transaction's index within that block.
  uint32_t index = 0;
};

/// The per-chain entry store + query indexes. Mutation (Store) is
/// single-threaded; const queries may run concurrently between mutations
/// — the Blockchain's parallel-validation discipline.
class ChainIndex {
 public:
  /// An empty index.
  ChainIndex() = default;
  /// Not copyable: the occurrence lists point into this store's entries.
  ChainIndex(const ChainIndex&) = delete;
  /// Not copy-assignable (see the copy constructor).
  ChainIndex& operator=(const ChainIndex&) = delete;

  /// Stores `entry` under `hash` (which must be new) and records its
  /// block's coinbase, deploys, calls and watched transfers (by position in
  /// `block.txs`) and its contract calls in the query indexes. Returns the
  /// stable stored entry.
  BlockEntry* Store(const crypto::Hash256& hash, BlockEntry entry);

  /// Records transfer `tx_id` from the next Store on, so OccurrencesOf
  /// and FindTx find it once it is mined. Watch it before it is mined:
  /// there is no backfill, and a transfer stored before its watch stays
  /// unindexed. A mutation like Store: call it between stores, never
  /// during a pool round whose tasks query the index. Watching an id twice,
  /// or a coinbase, deploy or call (indexed anyway), changes nothing.
  void Watch(const crypto::Hash256& tx_id) {
    tx_occurrences_.try_emplace(tx_id);
  }

  /// The stored entry for `hash`, or nullptr.
  const BlockEntry* FindEntry(const crypto::Hash256& hash) const {
    auto it = entries_.find(hash);
    return it == entries_.end() ? nullptr : &it->second;
  }

  /// True when `hash` is stored.
  bool Contains(const crypto::Hash256& hash) const {
    return entries_.contains(hash);
  }

  /// Stored entries (every fork, genesis included).
  size_t EntryCount() const { return entries_.size(); }

  /// Every stored occurrence of `tx_id` across all forks, in store order
  /// (empty span when the transaction is unknown or an unwatched
  /// transfer). Valid until the next Store.
  std::span<const TxLocation> OccurrencesOf(const crypto::Hash256& tx_id) const {
    auto it = tx_occurrences_.find(tx_id);
    if (it == tx_occurrences_.end()) return {};
    return it->second;
  }

  /// The occurrence of indexed `tx_id` on the branch selected by
  /// `on_branch` (a predicate over BlockEntry). At most one occurrence lies
  /// on any branch — duplicates are invalid per branch — so the first hit
  /// is THE location.
  template <typename OnBranch>
  std::optional<TxLocation> FindTx(const crypto::Hash256& tx_id,
                                   OnBranch&& on_branch) const {
    for (const TxLocation& occurrence : OccurrencesOf(tx_id)) {
      if (on_branch(*occurrence.entry)) return occurrence;
    }
    return std::nullopt;
  }

  /// The newest on-branch call of `function` on `contract_id` (optionally
  /// only successful calls), scanning only entries known to contain calls
  /// on that contract. `on_branch` selects the branch, as in FindTx.
  template <typename OnBranch>
  std::optional<TxLocation> FindCall(const crypto::Hash256& contract_id,
                                     const std::string& function,
                                     bool require_success,
                                     OnBranch&& on_branch) const {
    auto it = contract_calls_.find(contract_id);
    if (it == contract_calls_.end()) return std::nullopt;
    // Newest on-branch entry containing a matching call; within an entry,
    // calls are scanned in block order (same answer a head-to-genesis walk
    // would produce, without visiting call-free blocks).
    const BlockEntry* best_entry = nullptr;
    uint32_t best_index = 0;
    for (const BlockEntry* entry : it->second) {
      if (best_entry != nullptr && entry->height() <= best_entry->height()) {
        continue;
      }
      if (!on_branch(*entry)) continue;
      for (const CallRecord& call : entry->calls) {
        if (call.contract_id == contract_id && call.function == function &&
            (!require_success || call.success)) {
          best_entry = entry;
          best_index = call.tx_index;
          break;
        }
      }
    }
    if (best_entry == nullptr) return std::nullopt;
    return TxLocation{best_entry, best_index};
  }

 private:
  std::unordered_map<crypto::Hash256, BlockEntry> entries_;
  /// Indexed ids -> occurrences. An empty list is a watched transfer not
  /// yet stored.
  std::unordered_map<crypto::Hash256, std::vector<TxLocation>> tx_occurrences_;
  std::unordered_map<crypto::Hash256, std::vector<const BlockEntry*>>
      contract_calls_;
};

}  // namespace ac3::chain

#endif  // AC3_CHAIN_CHAIN_INDEX_H_
