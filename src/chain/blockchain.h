// The blockchain: a fork tree of validated blocks with the longest-chain
// (most cumulative work) rule.
//
// A block's ledger state is a pure function of its branch, so a reorg
// "reverts" contract state simply by the head moving (docs/architecture.md,
// "The three load-bearing design decisions", decision 1). This is the
// machinery behind the paper's fork discussion (Section 4.2): two
// conflicting SCw states can transiently live on two forks, and the chain
// converges to one of them.
//
// The chain keeps a block's state only while the block is a tip of the
// fork tree (the head among them) and at every kStateCheckpointInterval-th
// height, genesis included. A block extending a tip takes the tip's state
// over, so its commit writes the nodes that state owns alone in place; any
// other state is replayed on demand from the nearest checkpoint above it
// (StateAt).

#ifndef AC3_CHAIN_BLOCKCHAIN_H_
#define AC3_CHAIN_BLOCKCHAIN_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/chain/block.h"
#include "src/chain/chain_index.h"
#include "src/chain/ledger.h"
#include "src/chain/params.h"
#include "src/common/random.h"

namespace ac3::chain {

class Blockchain {
 public:
  /// Creates the chain with a genesis block materializing `allocations`
  /// (initial asset owners, e.g. experiment participants' funding).
  Blockchain(ChainParams params, std::vector<TxOutput> allocations);

  const ChainParams& params() const { return params_; }
  ChainId id() const { return params_.id; }

  // ----------------------------------------------------------- block store

  /// Fully validates `block` (PoW, linkage, roots, transaction execution,
  /// receipt equality) and stores it, moving it into its entry. The
  /// canonical head moves only when the new branch has strictly more work.
  /// The block's staged re-execution, both roots and its duplicate checks
  /// run side by side on the calling thread's WorkerPool; the returned
  /// status is still the one a serial check gives (ValidateAgainstParent).
  /// The commit and the store run on the caller.
  Status SubmitBlock(Block block, TimePoint arrival_time);

  const BlockEntry* genesis() const { return genesis_; }
  /// Canonical tip.
  const BlockEntry* head() const { return head_; }
  const BlockEntry* Get(const crypto::Hash256& hash) const;
  /// Height of the canonical tip.
  uint64_t height() const { return head_->block.header.height; }
  size_t block_count() const { return index_.EntryCount(); }
  /// Every stored entry (all forks, genesis first) in arrival order: the
  /// store's one enumeration, and an append-only feed consumers (the
  /// mining network's head trackers) index into.
  const std::vector<const BlockEntry*>& arrival_order() const {
    return arrival_order_;
  }

  // ------------------------------------------------- head subscriptions

  /// Fires after the canonical head moves (extension or reorg), with the
  /// store fully indexed — subscribers may query any canonical API. This is
  /// the substrate reactive protocol engines wake on instead of polling:
  /// confirmations only ever change when the head moves, so one callback
  /// per head movement replaces O(duration / poll_interval) timer events.
  /// `old_head` is the previous canonical tip. Callbacks run synchronously
  /// inside SubmitBlock; they must not submit blocks reentrantly.
  using HeadListener = std::function<void(const BlockEntry& old_head)>;
  using SubscriptionId = uint64_t;
  SubscriptionId SubscribeHead(HeadListener listener);
  /// Unknown ids are ignored (idempotent).
  void UnsubscribeHead(SubscriptionId id);

  /// The ancestor of `entry` at `height` (O(log height) via skip
  /// pointers); nullptr when `height` exceeds the entry's height.
  const BlockEntry* GetAncestor(const BlockEntry* entry,
                                uint64_t height) const;

  /// True when `tx_id` is included on the branch from genesis to `tip`
  /// (inclusive). O(occurrences x log height) via the global tx index —
  /// the duplicate check of block assembly and validation.
  bool TxOnBranch(const BlockEntry& tip, const crypto::Hash256& tx_id) const;

  // ------------------------------------------------------ canonical queries

  /// True when `hash` lies on the canonical chain.
  bool IsCanonical(const crypto::Hash256& hash) const;

  /// Number of canonical blocks mined after `hash` ("buried under N
  /// blocks"); nullopt when the block is not canonical.
  std::optional<uint64_t> ConfirmationsOf(const crypto::Hash256& hash) const;

  /// The canonical block `depth` below the head (clamped at genesis): the
  /// paper's "stable block at depth d".
  const BlockEntry* StableBlock(uint32_t depth) const;

  /// Canonical headers strictly after `ancestor_hash`, oldest first —
  /// the raw material of Section 4.3 evidence.
  Result<std::vector<BlockHeader>> HeadersAfter(
      const crypto::Hash256& ancestor_hash) const;

  /// Where a transaction landed on the canonical chain (chain::TxLocation,
  /// re-exported under the historical nested name).
  using TxLocation = chain::TxLocation;
  std::optional<TxLocation> FindTx(const crypto::Hash256& tx_id) const;

  /// Newest canonical call of `function` on `contract_id` (optionally only
  /// successful ones). This is how participants observe on-chain events —
  /// e.g. a redeem call revealing the hashlock secret.
  std::optional<TxLocation> FindCall(const crypto::Hash256& contract_id,
                                     const std::string& function,
                                     bool require_success) const;

  /// Contract snapshot at the canonical head.
  Result<contracts::ContractPtr> ContractAtHead(
      const crypto::Hash256& id) const;

  /// Kept states sit at every height that is a multiple of this, genesis
  /// included, so StateAt replays at most this many blocks less one.
  static constexpr uint64_t kStateCheckpointInterval = 32;

  /// The ledger state after `entry`'s block. O(1) for a kept state (a tip
  /// or a checkpoint); any other is a copy of the nearest checkpoint above
  /// it with the stored blocks after that replayed. The copy is
  /// independent: later submissions never change it.
  LedgerState StateAt(const BlockEntry& entry) const;

  /// The state at the canonical head (a tip, so O(1)). By value, so no
  /// caller holds a reference into a state a later block takes over.
  LedgerState StateAtHead() const { return StateAt(*head_); }

  /// The synthetic genesis transaction (its outputs fund the allocations).
  const Transaction& genesis_tx() const { return genesis_->block.txs[0]; }

  // --------------------------------------------------------------- mining

  /// Builds a valid block on `parent_hash` from `candidates` (FIFO,
  /// capacity-capped, structurally-invalid and already-included ones
  /// skipped), mines its PoW, and returns it WITHOUT submitting.
  ///
  /// Miners racing for the same extension assemble from the same parent,
  /// time and candidates; only their coinbase keys differ. The chain
  /// therefore keeps a one-entry block template: the last selection's
  /// chosen candidates, receipts, fees and the leaf-0 (coinbase) Merkle
  /// paths of both trees, keyed by parent hash, `now` and the ids of the
  /// candidates that selection examined (plus the candidate count when it
  /// ran out of candidates before filling the block). A matching call
  /// builds only the coinbase, its two leaves, two log-depth folds up the
  /// stored paths and the header; the block is byte-identical to a fresh
  /// selection. The key's ids are read from the transactions on every
  /// call, so a pool that moved or replaced its entries never matches
  /// stale addresses.
  Result<Block> AssembleBlock(const crypto::Hash256& parent_hash,
                              const std::vector<Transaction>& candidates,
                              const crypto::PublicKey& miner,
                              TimePoint now, Rng* rng) const;

  /// The allocation-light overload for the ingestion hot path: candidates
  /// by pointer (Mempool::CandidatePointersAt — rejected candidates are
  /// never copied), and optionally unmined — `mine = false` skips the
  /// nonce search, leaving header.nonce at zero, so a caller can run one
  /// search for many miners' assembled headers across the cores
  /// (MineHeaderBatch) and submit only the contention winner; `mine =
  /// true` mines with MineHeader on the calling thread.
  Result<Block> AssembleBlock(const crypto::Hash256& parent_hash,
                              std::span<const Transaction* const> candidates,
                              const crypto::PublicKey& miner, TimePoint now,
                              Rng* rng, bool mine = true) const;

 private:
  /// Full validation of `block` against its parent entry: linkage, PoW,
  /// the O(1) size checks (capacity, one receipt per transaction), roots,
  /// branch-duplicate checks, then serial transaction execution staged in
  /// `delta`, which lies over the parent's state (StageBlockBody), and
  /// declared-receipt equality. Writes no state.
  ///
  /// The staged execution, the tx root, the receipt root and the duplicate
  /// checks read only the block, the parent's state and the store, so they
  /// run as four tasks on the calling thread's WorkerPool, or one after
  /// another on the caller inside another round's task; their verdicts are
  /// read in the order above, so a block with several faults gets the
  /// status of the first. The price: a block that a root or duplicate
  /// check rejects has still been executed in full, where the serial order
  /// rejected it after hashing; only a block with valid proof of work gets
  /// that far.
  Status ValidateAgainstParent(const Block& block, const BlockEntry& parent,
                               LedgerDelta* delta,
                               std::vector<Receipt>* receipts) const;

  /// One selection's outcome: everything of an assembled block but the
  /// coinbase. Defined in blockchain.cc.
  struct BlockTemplate;

  /// The template for (`parent`, `now`, `candidates`): the cached one when
  /// its key matches, else a fresh serial FIFO selection, which replaces
  /// the cached entry. A fresh selection takes the candidates in windows
  /// of at most the block's remaining capacity; each window's signatures
  /// (memoized on the transaction) and branch lookups are checked first,
  /// in 64-transaction chunks on the calling thread's WorkerPool, and the
  /// serial loop then stages the window in order and hashes its leaves;
  /// both trees are built on the caller after it.
  std::shared_ptr<const BlockTemplate> SelectCandidates(
      const BlockEntry& parent, std::span<const Transaction* const> candidates,
      TimePoint now) const;

  /// Stores a block that already passed ValidateAgainstParent, with its
  /// `post_state` (the parent's state, taken over or copied, with the
  /// staged body committed): builds the BlockEntry, indexes it, keeps the
  /// post-state as a tip's, and applies the longest-chain rule (head
  /// listeners fire from here). SubmitBlock's store half.
  void CommitValidated(Block block, const crypto::Hash256& hash,
                       const BlockEntry* parent, LedgerState post_state,
                       const std::vector<Receipt>& receipts,
                       TimePoint arrival_time);

  /// True when `entry` lies on the branch ending at `tip`.
  bool OnBranch(const BlockEntry& tip, const BlockEntry* entry) const;

  ChainParams params_;
  /// Entry store + tx/contract query indexes (see chain_index.h).
  ChainIndex index_;
  /// The kept states: every tip's (no child has extended it yet) and every
  /// checkpoint's (height a multiple of kStateCheckpointInterval).
  std::unordered_map<const BlockEntry*, LedgerState> states_;
  std::vector<std::pair<SubscriptionId, HeadListener>> head_listeners_;
  SubscriptionId next_subscription_id_ = 1;
  const BlockEntry* genesis_ = nullptr;
  const BlockEntry* head_ = nullptr;
  uint64_t next_arrival_seq_ = 0;
  /// All entries in arrival order (genesis first).
  std::vector<const BlockEntry*> arrival_order_;
  /// The one-entry block template (see AssembleBlock). AssembleBlock is
  /// const, so it may run on several threads at once like any other
  /// query; the mutex guards the pointer, and entries are immutable once
  /// published.
  mutable std::mutex template_mu_;
  mutable std::shared_ptr<const BlockTemplate> template_;
};

}  // namespace ac3::chain

#endif  // AC3_CHAIN_BLOCKCHAIN_H_
