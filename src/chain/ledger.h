// Ledger state and deterministic transaction execution.
//
// A LedgerState is the materialized state of one branch of a blockchain:
// the UTXO set (the paper's asset ownership model, Section 2.2) plus the
// deployed contract snapshots. States are value types, so forks naturally
// own divergent contract states. The blockchain keeps one at each fork tip
// and at every 32nd height, and replays stored blocks onto the nearest
// kept one for any other block (blockchain.h).
//
// Both maps are persistent (copy-on-write) B+-trees (common/
// persistent_map.h: 8-entry leaves, 16-way inner nodes): copying a
// LedgerState is O(1), and a write updates the nodes this state owns
// alone in place and copies the ones on its path it still shares with a
// snapshot. A write walks 5 levels at open-world UTXO-set sizes. That
// is what keeps per-block engine cost sublinear in chain length (see
// README "Performance"). Iteration stays in key order, identical to the
// old std::map representation, so every fold is bit-for-bit reproducible;
// no code reads a tree's shape.
//
// A block's execution never touches a tree directly. It is staged in a
// LedgerDelta: hash maps of the outputs it created, the base outputs it
// spent and the contract snapshots it put, read through to a read-only
// parent state. Block selection stages each candidate into a delta it then
// drops, so it copies no tree node; validation stages the block the same
// way and, once every check has passed, commits its net changes into the
// parent's state, which becomes the block's. After genesis,
// LedgerDelta::CommitTo is the only code that writes a LedgerState's maps.
// The delta rests on one rule: an outpoint is created once per branch. A
// transaction id appears at most once on a branch (block validation checks
// every transaction, the coinbase included, against the branch), and an
// outpoint is named by its transaction's id, so an output the delta
// created was never in the base, and spending it leaves nothing to write.
//
// ApplyTransaction is the single execution path shared by miners (block
// assembly) and validators (block verification): "the validation is
// explicitly enforced in the storage layer" (Section 2.3).

#ifndef AC3_CHAIN_LEDGER_H_
#define AC3_CHAIN_LEDGER_H_

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/chain/block.h"
#include "src/chain/params.h"
#include "src/chain/receipt.h"
#include "src/chain/transaction.h"
#include "src/common/persistent_map.h"
#include "src/contracts/contract.h"

namespace ac3::chain {

/// Snapshot of one branch's state. Copies are O(1) and fully independent:
/// writing a copy never affects the state it was copied from.
///
/// The UTXO set carries one incrementally maintained aggregate, the total
/// liquid value, so reading it (the tests' value-conservation checks) is
/// O(1) instead of a full-set scan. GenesisState and LedgerDelta::CommitTo,
/// the only writers, keep it exact; the tests recompute it from the set
/// (testutil::LiquidValueScan).
struct LedgerState {
  /// Unspent outputs: the current ownership of every liquid asset.
  PersistentMap<OutPoint, TxOutput> utxos;
  /// Live contract snapshots by contract id.
  PersistentMap<crypto::Hash256, contracts::ContractPtr> contracts;
  /// Running sum of utxos' values (exact mirror; see LedgerDelta).
  Amount liquid_total = 0;

  /// Sum of all liquid (UTXO) value — the maintained total, O(1).
  Amount LiquidValue() const { return liquid_total; }
  /// Sum of all value locked inside contracts.
  Amount LockedValue() const;
  /// Liquid + locked: conserved by every non-coinbase transaction.
  Amount TotalValue() const { return LiquidValue() + LockedValue(); }

  /// Balance owned by `owner`: a scan of the UTXO set, O(n). Only tests
  /// and examples ask.
  Amount BalanceOf(const crypto::PublicKey& owner) const;

  /// Looks up a contract snapshot.
  Result<contracts::ContractPtr> GetContract(const crypto::Hash256& id) const;
};

/// Hash of an outpoint for the delta's map: the transaction id is already
/// uniform, and the index is mixed in so one transaction's outputs spread.
struct OutPointHash {
  size_t operator()(const OutPoint& outpoint) const noexcept {
    return std::hash<crypto::Hash256>{}(outpoint.tx_id) ^
           (outpoint.index * 0x9E3779B97F4A7C15ull);
  }
};

/// A run of ledger writes (one block's, or one selection's) staged over a
/// read-only base state. Reads see the base with the staged writes on top.
/// The base must outlive every read and stay unchanged until CommitTo.
/// CommitTo reads only the staged writes, so it may go into the base's
/// contents moved out of the base (how a block takes its parent's state).
class LedgerDelta {
 public:
  /// An empty delta over `base`.
  explicit LedgerDelta(const LedgerState& base)
      : base_(base), liquid_total_(base.liquid_total) {}
  /// A temporary base (say, Blockchain::StateAtHead()) would be gone
  /// before the first read.
  explicit LedgerDelta(const LedgerState&& base) = delete;

  /// The unspent output at `outpoint`, or nullptr when it was spent or
  /// never existed. Valid until the next write to this delta.
  const TxOutput* FindUtxo(const OutPoint& outpoint) const;
  /// The latest contract snapshot at `id`.
  Result<contracts::ContractPtr> GetContract(const crypto::Hash256& id) const;

  /// Creates `outputs` at (tx_id, first_index + i). Each outpoint must be
  /// new to the branch (see the file comment).
  void CreateOutputs(const crypto::Hash256& tx_id,
                     const std::vector<TxOutput>& outputs,
                     uint32_t first_index = 0);
  /// Spends `inputs`, which must be distinct and unspent in this view and
  /// hold `value` between them. An input this run created is erased from
  /// the delta; an input of the base is marked spent.
  void Spend(const std::vector<OutPoint>& inputs, Amount value);
  /// Stages `contract` as the snapshot at `id`.
  void PutContract(const crypto::Hash256& id, contracts::ContractPtr contract);

  /// Writes the staged net changes into `state`, which must hold the
  /// base's contents (the base itself, a copy of it, or the contents moved
  /// out of it), in key order, and sets its liquid total. Committing into
  /// the base's contents leaves this delta describing a base it no longer
  /// has: drop it afterwards.
  void CommitTo(LedgerState* state) const;

 private:
  const LedgerState& base_;
  /// An output this run created, or std::nullopt: a base output it spent.
  std::unordered_map<OutPoint, std::optional<TxOutput>, OutPointHash> utxos_;
  std::unordered_map<crypto::Hash256, contracts::ContractPtr> contracts_;
  /// The base's liquid total plus this run's net change.
  Amount liquid_total_;
};

/// Block-level execution environment handed to contracts as implicit
/// parameters.
struct BlockEnv {
  ChainId chain_id = 0;
  uint64_t height = 0;
  TimePoint time = 0;
};

/// Validates one non-coinbase transaction against `delta`'s view and
/// stages its writes there. All or nothing: every check — chain,
/// signature, inputs, value conservation (sums that would wrap past
/// 2^64 - 1 are rejected), the deploy or call outcome and contract
/// conservation — runs before the first write, so an error Status leaves
/// `delta` untouched and block selection stages every candidate in one
/// delta.
///
/// Outcomes:
///  * OK + success receipt        — applied, state advanced.
///  * OK + success=false receipt  — a contract guard failed; fees and
///                                  inputs were still consumed (the
///                                  Ethereum "reverted but included" model).
///  * error Status                — structurally invalid (bad signature,
///                                  missing input, value imbalance, unknown
///                                  contract). Such a transaction may not
///                                  appear in a valid block at all.
Result<Receipt> ApplyTransaction(LedgerDelta* delta, const Transaction& tx,
                                 const BlockEnv& env);

/// ApplyBlockBody's serial loop, staged in `delta` and not committed: the
/// validator's read-only half. On an invalid body it returns at the
/// offending transaction with the ones before it staged.
Result<std::vector<Receipt>> StageBlockBody(LedgerDelta* delta,
                                            const Block& block,
                                            const ChainParams& params);

/// Applies a full block body (coinbase included) to `state`, returning the
/// receipts in transaction order. Enforces the coinbase value rule
/// (outputs <= block reward + total fees, neither sum wrapping). Serial by
/// design: on a 4-core host a conflict-wave executor ran blocks 2.5-3x
/// slower than this loop. The body, then the coinbase's outputs, are
/// staged in one LedgerDelta over `state` and committed into it once, in
/// key order. On an invalid body the loop stops at the offending
/// transaction and the prefix before it is committed: `state` keeps the
/// writes of the transactions before it.
Result<std::vector<Receipt>> ApplyBlockBody(LedgerState* state,
                                            const Block& block,
                                            const ChainParams& params);

/// Builds the genesis state from initial allocations. The allocations are
/// materialized as outputs of a synthetic genesis transaction.
LedgerState GenesisState(const Transaction& genesis_tx);

}  // namespace ac3::chain

#endif  // AC3_CHAIN_LEDGER_H_
