// Wallet: builds signed transactions from a key pair and a ledger view.
//
// This is the paper's "client library" (Section 2.1): end-users inspect
// their unspent outputs on the chain they follow and produce signed
// transfer / deploy / call transactions. Inputs are selected greedily and
// change returns to the owner. Outputs selected for an in-flight
// transaction are reserved so a participant does not double-spend its own
// pending change.

#ifndef AC3_CHAIN_WALLET_H_
#define AC3_CHAIN_WALLET_H_

#include <set>
#include <utility>
#include <vector>

#include "src/chain/ledger.h"
#include "src/chain/transaction.h"
#include "src/crypto/schnorr.h"

namespace ac3::chain {

class Wallet {
 public:
  Wallet(crypto::KeyPair key, ChainId chain_id)
      : key_(std::move(key)), chain_id_(chain_id) {}

  const crypto::PublicKey& public_key() const { return key_.public_key(); }
  const crypto::KeyPair& key() const { return key_; }
  ChainId chain_id() const { return chain_id_; }

  /// Spendable balance in `state` (excluding reserved outpoints).
  Amount SpendableBalance(const LedgerState& state) const;

  /// Plain transfer of `amount` to `recipient` (merge/split semantics).
  Result<Transaction> BuildTransfer(const LedgerState& state,
                                    const crypto::PublicKey& recipient,
                                    Amount amount, Amount fee, uint64_t nonce);

  /// Contract deployment locking `locked_value` (msg.value).
  Result<Transaction> BuildDeploy(const LedgerState& state,
                                  const std::string& kind, const Bytes& payload,
                                  Amount locked_value, Amount fee,
                                  uint64_t nonce);

  /// Contract function call (pays only the fee).
  Result<Transaction> BuildCall(const LedgerState& state,
                                const crypto::Hash256& contract_id,
                                const std::string& function, const Bytes& args,
                                Amount fee, uint64_t nonce);

 private:
  /// Greedy input selection covering `needed`; returns (inputs, total).
  Result<std::pair<std::vector<OutPoint>, Amount>> SelectInputs(
      const LedgerState& state, Amount needed);

  /// Fills inputs/outputs (with change), signs and seals.
  Result<Transaction> Finalize(MutableTransaction tx, const LedgerState& state,
                               Amount spend_total);

  crypto::KeyPair key_;
  ChainId chain_id_;
  std::set<OutPoint> reserved_;
};

}  // namespace ac3::chain

#endif  // AC3_CHAIN_WALLET_H_
