#include "src/chain/wallet.h"

namespace ac3::chain {

Amount Wallet::SpendableBalance(const LedgerState& state) const {
  Amount total = 0;
  for (const auto& [outpoint, output] : state.utxos) {
    if (output.owner == key_.public_key() && reserved_.count(outpoint) == 0) {
      total += output.value;
    }
  }
  return total;
}

Result<std::pair<std::vector<OutPoint>, Amount>> Wallet::SelectInputs(
    const LedgerState& state, Amount needed) {
  std::vector<OutPoint> inputs;
  Amount total = 0;
  for (const auto& [outpoint, output] : state.utxos) {
    if (output.owner != key_.public_key()) continue;
    if (reserved_.count(outpoint) > 0) continue;
    inputs.push_back(outpoint);
    total += output.value;
    if (total >= needed) break;
  }
  if (total < needed) {
    return Status::FailedPrecondition(
        "insufficient spendable balance: have " + std::to_string(total) +
        ", need " + std::to_string(needed));
  }
  return std::make_pair(std::move(inputs), total);
}

Result<Transaction> Wallet::Finalize(MutableTransaction tx,
                                     const LedgerState& state,
                                     Amount spend_total) {
  AC3_ASSIGN_OR_RETURN(auto selection, SelectInputs(state, spend_total));
  auto& [inputs, total] = selection;
  tx.inputs = inputs;
  if (total > spend_total) {
    // Change back to self (the "split" of Figure 2's TX2).
    tx.outputs.push_back(TxOutput{total - spend_total, key_.public_key()});
  }
  tx.SignWith(key_);
  for (const OutPoint& in : inputs) reserved_.insert(in);
  return Transaction(std::move(tx));
}

Result<Transaction> Wallet::BuildTransfer(const LedgerState& state,
                                          const crypto::PublicKey& recipient,
                                          Amount amount, Amount fee,
                                          uint64_t nonce) {
  MutableTransaction tx;
  tx.type = TxType::kTransfer;
  tx.chain_id = chain_id_;
  tx.fee = fee;
  tx.nonce = nonce;
  tx.outputs.push_back(TxOutput{amount, recipient});
  return Finalize(std::move(tx), state, amount + fee);
}

Result<Transaction> Wallet::BuildDeploy(const LedgerState& state,
                                        const std::string& kind,
                                        const Bytes& payload,
                                        Amount locked_value, Amount fee,
                                        uint64_t nonce) {
  MutableTransaction tx;
  tx.type = TxType::kDeploy;
  tx.chain_id = chain_id_;
  tx.fee = fee;
  tx.nonce = nonce;
  tx.contract_kind = kind;
  tx.payload = payload;
  tx.contract_value = locked_value;
  return Finalize(std::move(tx), state, locked_value + fee);
}

Result<Transaction> Wallet::BuildCall(const LedgerState& state,
                                      const crypto::Hash256& contract_id,
                                      const std::string& function,
                                      const Bytes& args, Amount fee,
                                      uint64_t nonce) {
  MutableTransaction tx;
  tx.type = TxType::kCall;
  tx.chain_id = chain_id_;
  tx.fee = fee;
  tx.nonce = nonce;
  tx.contract_id = contract_id;
  tx.function = function;
  tx.payload = args;
  return Finalize(std::move(tx), state, fee);
}

}  // namespace ac3::chain
