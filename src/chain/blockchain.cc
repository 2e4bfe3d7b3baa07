#include "src/chain/blockchain.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/chain/pow.h"
#include "src/common/worker_pool.h"
#include "src/crypto/merkle.h"

namespace ac3::chain {

Blockchain::Blockchain(ChainParams params, std::vector<TxOutput> allocations)
    : params_(std::move(params)) {
  // Synthetic genesis: a coinbase materializing the initial allocations.
  MutableTransaction genesis;
  genesis.type = TxType::kCoinbase;
  genesis.chain_id = params_.id;
  genesis.outputs = std::move(allocations);
  genesis.nonce = 0;
  const Transaction genesis_tx(std::move(genesis));

  Block genesis_block;
  genesis_block.header.chain_id = params_.id;
  genesis_block.header.height = 0;
  genesis_block.header.time = 0;
  genesis_block.header.difficulty_bits = 0;  // Genesis needs no PoW.
  genesis_block.txs.push_back(genesis_tx);
  Receipt genesis_receipt;
  genesis_receipt.tx_id = genesis_tx.Id();
  genesis_receipt.note = "genesis";
  genesis_block.receipts.push_back(genesis_receipt);
  genesis_block.header.tx_root = genesis_block.ComputeTxRoot();
  genesis_block.header.receipt_root = genesis_block.ComputeReceiptRoot();

  BlockEntry entry;
  entry.hash = genesis_block.header.Hash();
  entry.block = std::move(genesis_block);
  entry.total_work = 0;
  entry.arrival_time = 0;
  entry.arrival_seq = next_arrival_seq_++;
  entry.included_tx_count = 1;

  const crypto::Hash256 genesis_hash = entry.hash;
  genesis_ = index_.Store(genesis_hash, std::move(entry));
  head_ = genesis_;
  arrival_order_.push_back(genesis_);
  states_.emplace(genesis_, GenesisState(genesis_tx));
}

namespace {

/// Clears the lowest set bit (Bitcoin's skip-height helper).
uint64_t InvertLowestOne(uint64_t n) { return n & (n - 1); }

/// Height the skip pointer of a block at `height` jumps to: mostly a big
/// power-of-two-aligned hop, with a +1 wobble on odd heights so paths mix
/// both long and short jumps (exactly Bitcoin's GetSkipHeight).
uint64_t SkipHeightFor(uint64_t height) {
  if (height < 2) return 0;
  return (height & 1) ? InvertLowestOne(InvertLowestOne(height - 1)) + 1
                      : InvertLowestOne(height);
}

/// True when the chain keeps `entry`'s state whatever extends it.
bool IsCheckpoint(const BlockEntry& entry) {
  return entry.height() % Blockchain::kStateCheckpointInterval == 0;
}

/// Candidates per pool task in a selection's signature checks.
constexpr size_t kCheckChunk = 64;

}  // namespace

const BlockEntry* Blockchain::GetAncestor(const BlockEntry* entry,
                                          uint64_t height) const {
  if (entry == nullptr || height > entry->height()) return nullptr;
  const BlockEntry* walk = entry;
  uint64_t walk_height = walk->height();
  while (walk_height > height) {
    const uint64_t skip_height = SkipHeightFor(walk_height);
    // Take the long jump unless it overshoots in a way the parent's own
    // skip would have served better (Bitcoin's heuristic, which bounds the
    // walk at O(log height)).
    if (walk->skip != nullptr &&
        (skip_height == height ||
         (skip_height > height &&
          !(SkipHeightFor(walk_height - 1) < skip_height - 2 &&
            SkipHeightFor(walk_height - 1) >= height)))) {
      walk = walk->skip;
      walk_height = skip_height;
    } else {
      assert(walk->parent != nullptr);
      walk = walk->parent;
      --walk_height;
    }
  }
  return walk;
}

bool Blockchain::OnBranch(const BlockEntry& tip,
                          const BlockEntry* entry) const {
  return entry != nullptr && entry->height() <= tip.height() &&
         GetAncestor(&tip, entry->height()) == entry;
}

bool Blockchain::TxOnBranch(const BlockEntry& tip,
                            const crypto::Hash256& tx_id) const {
  for (const TxLocation& occurrence : index_.OccurrencesOf(tx_id)) {
    if (OnBranch(tip, occurrence.entry)) return true;
  }
  return false;
}

const BlockEntry* Blockchain::Get(const crypto::Hash256& hash) const {
  return index_.FindEntry(hash);
}

LedgerState Blockchain::StateAt(const BlockEntry& entry) const {
  // Only tips and checkpoints are kept, and an ancestor is no tip: the
  // walk ends at the checkpoint above `entry` (genesis at the latest).
  std::vector<const BlockEntry*> replay;
  auto kept = states_.find(&entry);
  for (const BlockEntry* walk = &entry; kept == states_.end();) {
    replay.push_back(walk);
    walk = walk->parent;
    kept = states_.find(walk);
  }
  LedgerState state = kept->second;
  for (auto it = replay.rbegin(); it != replay.rend(); ++it) {
    const Block& block = (*it)->block;
    const Result<std::vector<Receipt>> receipts =
        ApplyBlockBody(&state, block, params_);
    // The block passed validation on exactly this state.
    assert(receipts.ok() && *receipts == block.receipts);
    (void)receipts;
  }
  return state;
}

Status Blockchain::ValidateAgainstParent(const Block& block,
                                         const BlockEntry& parent,
                                         LedgerDelta* delta,
                                         std::vector<Receipt>* receipts) const {
  const BlockHeader& header = block.header;
  AC3_RETURN_IF_ERROR(CheckHeaderLink(header, parent.block.header, parent.hash,
                                      params_.difficulty_bits));
  // The O(1) size checks run before anything hashes or executes the body.
  if (block.txs.size() > params_.max_block_txs + 1) {  // +1 for coinbase.
    return Status::InvalidArgument("block over capacity");
  }
  if (block.receipts.size() != block.txs.size()) {
    return Status::VerificationFailed("receipt count mismatch");
  }

  // The staged re-execution and both roots read only the block and the
  // parent's state, so they run side by side (the longest, the
  // re-execution, is claimed first); their verdicts and the coinbase
  // check's are read in the order a serial check meets them, so a block
  // with several faults gets the status of the first.
  Result<std::vector<Receipt>> staged = std::vector<Receipt>();
  crypto::Hash256 tx_root;
  crypto::Hash256 receipt_root;
  common::WorkerPool::ForThisThread().ParallelFor(3, [&](size_t part) {
    switch (part) {
      case 0:
        staged = StageBlockBody(delta, block, params_);
        break;
      case 1:
        tx_root = block.ComputeTxRoot();
        break;
      default:
        receipt_root = block.ComputeReceiptRoot();
    }
  });
  // No transaction may repeat on a branch. Every kind but the coinbase
  // must spend an input, which its earlier inclusion spent, so staging
  // rejects its repeat; a coinbase spends none, and its repeat would
  // re-create the earlier one's outputs over them, unspent or not, and
  // count their value twice (Bitcoin's BIP30). So the coinbase is the one
  // transaction looked up on the branch.
  const bool repeated =
      !block.txs.empty() && TxOnBranch(parent, block.txs[0].Id());
  if (header.tx_root != tx_root) {
    return Status::VerificationFailed("tx merkle root mismatch");
  }
  if (header.receipt_root != receipt_root) {
    return Status::VerificationFailed("receipt merkle root mismatch");
  }
  if (repeated) {
    return Status::InvalidArgument("transaction already included on branch");
  }
  if (!staged.ok()) return staged.status();
  *receipts = std::move(*staged);

  // The block's declared receipts must match deterministic re-execution
  // (a successful body yields one receipt per transaction, so the counts
  // already agree). Receipts compare by value, which equals comparing
  // their encodings (receipt.h).
  for (size_t i = 0; i < receipts->size(); ++i) {
    if ((*receipts)[i] != block.receipts[i]) {
      return Status::VerificationFailed("receipt mismatch at index " +
                                        std::to_string(i));
    }
  }
  return Status::OK();
}

Status Blockchain::SubmitBlock(Block block, TimePoint arrival_time) {
  const crypto::Hash256 hash = block.header.Hash();
  if (index_.Contains(hash)) {
    return Status::AlreadyExists("block already known");
  }
  const BlockEntry* parent = Get(block.header.prev_hash);
  if (parent == nullptr) {
    return Status::NotFound("parent block unknown (orphan)");
  }

  // The body stages over the parent's state: a kept one where it lies,
  // any other replayed once into `state`, which is then the block's.
  const auto kept = states_.find(parent);
  LedgerState state;
  if (kept == states_.end()) state = StateAt(*parent);
  LedgerDelta delta(kept == states_.end() ? state : kept->second);
  std::vector<Receipt> receipts;
  AC3_RETURN_IF_ERROR(
      ValidateAgainstParent(block, *parent, &delta, &receipts));

  // Every check passed: the parent's state becomes the block's. A tip
  // hands its state over and keeps none, so the commit writes the nodes
  // it owns alone in place. A checkpoint keeps its own, and the block
  // commits into an O(1) copy, path-copying what the two share.
  const bool hand_over = kept != states_.end() && !IsCheckpoint(*parent);
  if (hand_over) {
    state = std::move(kept->second);
  } else if (kept != states_.end()) {
    state = kept->second;
  }
  delta.CommitTo(&state);
  if (hand_over) states_.erase(kept);
  CommitValidated(std::move(block), hash, parent, std::move(state), receipts,
                  arrival_time);
  return Status::OK();
}

void Blockchain::CommitValidated(Block block, const crypto::Hash256& hash,
                                 const BlockEntry* parent,
                                 LedgerState post_state,
                                 const std::vector<Receipt>& receipts,
                                 TimePoint arrival_time) {
  BlockEntry entry;
  entry.hash = hash;
  entry.total_work =
      parent->total_work + WorkForDifficulty(block.header.difficulty_bits);
  entry.arrival_time = arrival_time;
  entry.arrival_seq = next_arrival_seq_++;
  entry.parent = parent;
  entry.skip = GetAncestor(parent, SkipHeightFor(block.header.height));
  entry.included_tx_count = parent->included_tx_count + block.txs.size();
  for (uint32_t i = 0; i < block.txs.size(); ++i) {
    const Transaction& tx = block.txs[i];
    if (tx.type() == TxType::kCall) {
      entry.calls.push_back(
          CallRecord{tx.contract_id(), tx.function(), i, receipts[i].success});
    }
  }
  entry.block = std::move(block);

  const BlockEntry* stored = index_.Store(hash, std::move(entry));
  arrival_order_.push_back(stored);
  states_.emplace(stored, std::move(post_state));

  // Longest-chain rule: the stored block arrived last, so it wins only
  // with strictly more work and the first-seen block keeps a tie.
  if (ForkChoicePrefers(*stored, *head_)) {
    const BlockEntry* old_head = head_;
    head_ = stored;
    // Iterate by index: a listener may subscribe another listener (growing
    // the vector) but unsubscription mid-notification is not supported.
    for (size_t i = 0; i < head_listeners_.size(); ++i) {
      head_listeners_[i].second(*old_head);
    }
  }
}

Blockchain::SubscriptionId Blockchain::SubscribeHead(HeadListener listener) {
  const SubscriptionId id = next_subscription_id_++;
  head_listeners_.emplace_back(id, std::move(listener));
  return id;
}

void Blockchain::UnsubscribeHead(SubscriptionId id) {
  std::erase_if(head_listeners_,
                [id](const auto& entry) { return entry.first == id; });
}

bool Blockchain::IsCanonical(const crypto::Hash256& hash) const {
  return ConfirmationsOf(hash).has_value();
}

std::optional<uint64_t> Blockchain::ConfirmationsOf(
    const crypto::Hash256& hash) const {
  const BlockEntry* target = Get(hash);
  if (!OnBranch(*head_, target)) return std::nullopt;
  return head_->block.header.height - target->block.header.height;
}

const BlockEntry* Blockchain::StableBlock(uint32_t depth) const {
  const uint64_t head_height = head_->height();
  const uint64_t target = depth >= head_height ? 0 : head_height - depth;
  const BlockEntry* entry = GetAncestor(head_, target);
  assert(entry != nullptr);
  return entry;
}

Result<std::vector<BlockHeader>> Blockchain::HeadersAfter(
    const crypto::Hash256& ancestor_hash) const {
  const BlockEntry* ancestor = Get(ancestor_hash);
  if (!OnBranch(*head_, ancestor)) {
    return Status::NotFound("ancestor not on canonical chain");
  }
  std::vector<BlockHeader> headers;
  headers.reserve(head_->height() - ancestor->height());
  for (const BlockEntry* cursor = head_; cursor != ancestor;
       cursor = cursor->parent) {
    headers.push_back(cursor->block.header);
  }
  std::reverse(headers.begin(), headers.end());
  return headers;
}

std::optional<Blockchain::TxLocation> Blockchain::FindTx(
    const crypto::Hash256& tx_id) const {
  // The index filters by the canonical branch: head_ supplies "canonical".
  return index_.FindTx(tx_id, [this](const BlockEntry& entry) {
    return OnBranch(*head_, &entry);
  });
}

bool Blockchain::TxConfirmedAtDepth(const crypto::Hash256& tx_id,
                                    uint64_t depth) const {
  // FindTx finds canonical inclusions only, so the block's confirmations
  // are the heights between it and the head.
  const std::optional<TxLocation> location = FindTx(tx_id);
  return location.has_value() &&
         head_->height() - location->entry->height() >= depth;
}

std::optional<Blockchain::TxLocation> Blockchain::FindCall(
    const crypto::Hash256& contract_id, const std::string& function,
    bool require_success) const {
  return index_.FindCall(contract_id, function, require_success,
                         [this](const BlockEntry& entry) {
                           return OnBranch(*head_, &entry);
                         });
}

std::optional<Blockchain::TxLocation> Blockchain::CallConfirmedAtDepth(
    const crypto::Hash256& contract_id, const std::string& function,
    uint64_t depth) const {
  // As in TxConfirmedAtDepth: FindCall finds canonical calls only.
  std::optional<TxLocation> call =
      FindCall(contract_id, function, /*require_success=*/true);
  if (call.has_value() && head_->height() - call->entry->height() < depth) {
    return std::nullopt;
  }
  return call;
}

Result<contracts::ContractPtr> Blockchain::ContractAtHead(
    const crypto::Hash256& id) const {
  return StateAtHead().GetContract(id);
}

Result<Block> Blockchain::AssembleBlock(
    const crypto::Hash256& parent_hash,
    const std::vector<Transaction>& candidates,
    const crypto::PublicKey& miner, TimePoint now, Rng* rng) const {
  std::vector<const Transaction*> pointers;
  pointers.reserve(candidates.size());
  for (const Transaction& tx : candidates) pointers.push_back(&tx);
  return AssembleBlock(parent_hash, pointers, miner, now, rng);
}

/// One selection's outcome: the cache entry behind AssembleBlock.
struct Blockchain::BlockTemplate {
  // Key.
  crypto::Hash256 parent_hash;
  TimePoint now = 0;
  /// Ids of the candidates the selection examined, a prefix of its list.
  std::vector<crypto::Hash256> examined;
  /// The selection filled the block: candidates past `examined` were never
  /// looked at, so any list sharing the prefix selects the same.
  bool full = false;

  // Contents.
  std::vector<uint32_t> chosen;  ///< Positions in the candidate list.
  std::vector<Receipt> receipts;
  /// Prove(0) over the tx ids and over the receipt leaves, with the
  /// coinbase's slot at leaf 0. Racing miners' blocks differ only in that
  /// leaf, and leaf 0's path never depends on it, so each miner folds its
  /// coinbase up these paths: log2(n) pair hashes per root, not n - 1.
  crypto::MerkleProof tx_branch;
  crypto::MerkleProof receipt_branch;
  Amount total_fees = 0;

  bool Matches(const crypto::Hash256& parent, TimePoint at,
               std::span<const Transaction* const> candidates) const {
    if (parent != parent_hash || at != now) return false;
    if (full ? candidates.size() < examined.size()
             : candidates.size() != examined.size()) {
      return false;
    }
    for (size_t i = 0; i < examined.size(); ++i) {
      if (candidates[i]->Id() != examined[i]) return false;
    }
    return true;
  }
};

std::shared_ptr<const Blockchain::BlockTemplate> Blockchain::SelectCandidates(
    const BlockEntry& parent, std::span<const Transaction* const> candidates,
    TimePoint now) const {
  std::shared_ptr<const BlockTemplate> cached;
  {
    std::lock_guard<std::mutex> lock(template_mu_);
    cached = template_;
  }
  if (cached != nullptr && cached->Matches(parent.hash, now, candidates)) {
    return cached;
  }

  // Selection pass: FIFO, skip invalid transactions. A candidate already
  // on the branch, or chosen earlier in this list, is one: its inputs are
  // spent. A rejected ApplyTransaction leaves `working` untouched, so
  // candidates stage into it directly; it is dropped at the end, and no
  // tree node of the parent's state is copied.
  auto fresh = std::make_shared<BlockTemplate>();
  fresh->parent_hash = parent.hash;
  fresh->now = now;
  const BlockEnv env{params_.id, parent.block.header.height + 1, now};
  const LedgerState base = StateAt(parent);
  LedgerDelta working(base);
  // Leaf 0 is the coinbase's slot; its value never enters the paths.
  std::vector<crypto::Hash256> tx_leaves(1);
  std::vector<crypto::Hash256> receipt_leaves(1);
  // The candidates go in windows of at most the block's remaining
  // capacity, so the block can fill only at a window's end, where the
  // serial loop below would stop. Each window's signatures (memoized, so
  // ApplyTransaction reads the verdict) are checked first, in chunks on
  // the pool (a window of one chunk runs on the caller); they read no
  // state the loop writes.
  common::WorkerPool& pool = common::WorkerPool::ForThisThread();
  for (size_t first = 0; first < candidates.size() &&
                         fresh->chosen.size() < params_.max_block_txs;) {
    const size_t end =
        first + std::min(candidates.size() - first,
                         params_.max_block_txs - fresh->chosen.size());
    pool.ParallelFor((end - first + kCheckChunk - 1) / kCheckChunk,
                     [&](size_t chunk) {
                       const size_t from = first + chunk * kCheckChunk;
                       const size_t to = std::min(end, from + kCheckChunk);
                       for (size_t i = from; i < to; ++i) {
                         candidates[i]->VerifySignature();
                       }
                     });
    for (size_t i = first; i < end; ++i) {
      const Transaction& tx = *candidates[i];
      const crypto::Hash256& tx_id = tx.Id();
      fresh->examined.push_back(tx_id);
      auto receipt = ApplyTransaction(&working, tx, env);
      if (!receipt.ok()) continue;
      fresh->chosen.push_back(static_cast<uint32_t>(i));
      tx_leaves.push_back(tx_id);
      receipt_leaves.push_back(receipt->LeafHash());
      fresh->receipts.push_back(std::move(*receipt));
      fresh->total_fees += tx.fee();
    }
    first = end;
  }
  fresh->full = fresh->chosen.size() >= params_.max_block_txs;
  fresh->tx_branch = *crypto::MerkleTree(std::move(tx_leaves)).Prove(0);
  fresh->receipt_branch =
      *crypto::MerkleTree(std::move(receipt_leaves)).Prove(0);

  std::lock_guard<std::mutex> lock(template_mu_);
  template_ = fresh;
  return fresh;
}

Result<Block> Blockchain::AssembleBlock(
    const crypto::Hash256& parent_hash,
    std::span<const Transaction* const> candidates,
    const crypto::PublicKey& miner, TimePoint now, Rng* rng,
    bool mine) const {
  const BlockEntry* parent = Get(parent_hash);
  if (parent == nullptr) return Status::NotFound("unknown parent");
  const std::shared_ptr<const BlockTemplate> selection =
      SelectCandidates(*parent, candidates, now);

  // Coinbase pays the reward plus the collected fees to the miner.
  MutableTransaction coinbase;
  coinbase.type = TxType::kCoinbase;
  coinbase.chain_id = params_.id;
  coinbase.outputs.push_back(
      TxOutput{params_.block_reward + selection->total_fees, miner});
  coinbase.nonce = rng->NextU64();  // Uniquify across blocks.

  Block block;
  block.header.chain_id = params_.id;
  block.header.height = parent->block.header.height + 1;
  block.header.prev_hash = parent_hash;
  block.header.time = now;
  block.header.difficulty_bits = params_.difficulty_bits;
  block.txs.reserve(1 + selection->chosen.size());
  block.txs.emplace_back(std::move(coinbase));
  for (const uint32_t position : selection->chosen) {
    block.txs.push_back(*candidates[position]);
  }

  // Declared receipts come straight from the selection pass: each chosen
  // transaction's receipt was produced by the same ApplyTransaction call
  // sequence, staged over the same parent state, that ApplyBlockBody runs
  // for validators (the serial loop creates the coinbase outputs *after*
  // the body, so body transactions never observe them).
  // ValidateAgainstParent's receipt-equality check still re-derives them,
  // and both roots from the whole body, on every submission, and the
  // golden determinism fingerprints pin the block hashes.
  Receipt coinbase_receipt;
  coinbase_receipt.tx_id = block.txs[0].Id();
  coinbase_receipt.note = "coinbase";
  block.header.tx_root =
      crypto::RootFromProof(coinbase_receipt.tx_id, selection->tx_branch);
  block.header.receipt_root = crypto::RootFromProof(
      coinbase_receipt.LeafHash(), selection->receipt_branch);

  block.receipts.reserve(1 + selection->receipts.size());
  block.receipts.push_back(std::move(coinbase_receipt));
  block.receipts.insert(block.receipts.end(), selection->receipts.begin(),
                        selection->receipts.end());
  if (mine) MineHeader(&block.header, rng);
  return block;
}

}  // namespace ac3::chain
