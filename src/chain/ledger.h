// Ledger state and deterministic transaction execution.
//
// A LedgerState is the materialized state of one branch of a blockchain:
// the UTXO set (the paper's asset ownership model, Section 2.2) plus the
// deployed contract snapshots. States are value types; the blockchain keeps
// one per block, so forks naturally own divergent contract states.
//
// Both maps are persistent (copy-on-write) trees: copying a LedgerState is
// O(1), and a mutation updates the nodes this state owns alone in place
// and path-copies the ones it still shares with a snapshot. That is what
// keeps per-block engine cost sublinear in chain length (see README
// "Performance"). Iteration stays in key order, identical to the old
// std::map representation, so every fold is bit-for-bit reproducible.
//
// ApplyTransaction is the single execution path shared by miners (block
// assembly) and validators (block verification): "the validation is
// explicitly enforced in the storage layer" (Section 2.3).

#ifndef AC3_CHAIN_LEDGER_H_
#define AC3_CHAIN_LEDGER_H_

#include "src/chain/block.h"
#include "src/chain/params.h"
#include "src/chain/receipt.h"
#include "src/chain/transaction.h"
#include "src/common/persistent_map.h"
#include "src/contracts/contract.h"

namespace ac3::chain {

/// Snapshot of one branch's state. Copies are O(1) and fully independent:
/// mutating a copy never affects the state it was copied from.
///
/// The UTXO set carries one incrementally maintained aggregate, the total
/// liquid value, so the per-step engine queries (protocol funding checks,
/// bench assertions) are O(1) instead of a full-set scan. All UTXO
/// mutations go through AddUtxo/SpendUtxo (ledger execution is the only
/// writer), which keeps it exact; LiquidValueScan recomputes it from the
/// set and is kept as the test oracle.
struct LedgerState {
  /// Unspent outputs: the current ownership of every liquid asset.
  PersistentMap<OutPoint, TxOutput> utxos;
  /// Live contract snapshots by contract id.
  PersistentMap<crypto::Hash256, contracts::ContractPtr> contracts;
  /// Running sum of utxos' values (exact mirror; see AddUtxo/SpendUtxo).
  Amount liquid_total = 0;

  /// Sum of all liquid (UTXO) value — the maintained total, O(1).
  Amount LiquidValue() const { return liquid_total; }
  /// Full-scan recomputation of LiquidValue (test oracle).
  Amount LiquidValueScan() const;
  /// Sum of all value locked inside contracts.
  Amount LockedValue() const;
  /// Liquid + locked: conserved by every non-coinbase transaction.
  Amount TotalValue() const { return LiquidValue() + LockedValue(); }

  /// Balance owned by `owner`: a scan of the UTXO set, O(n). Only tests
  /// and examples ask.
  Amount BalanceOf(const crypto::PublicKey& owner) const;

  /// Inserts an unspent output and updates the liquid total.
  void AddUtxo(const OutPoint& outpoint, const TxOutput& output);
  /// Erases an unspent output (which must exist) and updates the liquid
  /// total.
  void SpendUtxo(const OutPoint& outpoint);

  /// Looks up a contract snapshot.
  Result<contracts::ContractPtr> GetContract(const crypto::Hash256& id) const;
};

/// Block-level execution environment handed to contracts as implicit
/// parameters.
struct BlockEnv {
  ChainId chain_id = 0;
  uint64_t height = 0;
  TimePoint time = 0;
};

/// Validates and applies one non-coinbase transaction to `state` in place.
/// All or nothing: every check — chain, signature, inputs, value
/// conservation (sums that would wrap past 2^64 - 1 are rejected), the
/// deploy or call outcome and contract conservation — runs before the
/// first mutation, so an error Status leaves `state` untouched and block
/// selection can apply candidates to its working state directly.
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
Result<Receipt> ApplyTransaction(LedgerState* state, const Transaction& tx,
                                 const BlockEnv& env);

/// Applies a full block body (coinbase included) to `state`, returning the
/// receipts in transaction order. Enforces the coinbase value rule
/// (outputs <= block reward + total fees, neither sum wrapping). Serial by
/// design: on a 4-core host a conflict-wave executor ran blocks 2.5-3x
/// slower than this loop. On an invalid body the loop stops at the
/// offending transaction and `state` keeps the mutations of the ones
/// before it.
Result<std::vector<Receipt>> ApplyBlockBody(LedgerState* state,
                                            const Block& block,
                                            const ChainParams& params);

/// Builds the genesis state from initial allocations. The allocations are
/// materialized as outputs of a synthetic genesis transaction.
LedgerState GenesisState(const Transaction& genesis_tx);

}  // namespace ac3::chain

#endif  // AC3_CHAIN_LEDGER_H_
