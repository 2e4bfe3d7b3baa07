#include "src/chain/ledger.h"

#include <cassert>
#include <mutex>
#include <utility>

namespace ac3::chain {

Amount LedgerState::LiquidValueScan() const {
  Amount total = 0;
  for (const auto& [outpoint, output] : utxos) total += output.value;
  return total;
}

Amount LedgerState::LockedValue() const {
  Amount total = 0;
  for (const auto& [id, contract] : contracts) total += contract->locked_value();
  return total;
}

Amount LedgerState::BalanceOf(const crypto::PublicKey& owner) const {
  const Amount* balance = balances.Find(owner);
  return balance != nullptr ? *balance : 0;
}

Amount LedgerState::BalanceOfScan(const crypto::PublicKey& owner) const {
  Amount total = 0;
  for (const auto& [outpoint, output] : utxos) {
    if (output.owner == owner) total += output.value;
  }
  return total;
}

void LedgerState::AddUtxo(const OutPoint& outpoint, const TxOutput& output) {
  utxos.Put(outpoint, output);
  liquid_total += output.value;
  balances.Put(output.owner, BalanceOf(output.owner) + output.value);
}

void LedgerState::SpendUtxo(const OutPoint& outpoint) {
  const TxOutput* output = utxos.Find(outpoint);
  assert(output != nullptr && "SpendUtxo: outpoint not in UTXO set");
  liquid_total -= output->value;
  const Amount remaining = BalanceOf(output->owner) - output->value;
  if (remaining == 0) {
    balances.Erase(output->owner);
  } else {
    balances.Put(output->owner, remaining);
  }
  utxos.Erase(outpoint);
}

Result<contracts::ContractPtr> LedgerState::GetContract(
    const crypto::Hash256& id) const {
  const contracts::ContractPtr* contract = contracts.Find(id);
  if (contract == nullptr) {
    return Status::NotFound("no contract " + id.ShortHex());
  }
  return *contract;
}

namespace {

/// One-time builtin-contract registration, hoisted out of the per-tx
/// execution path: the factory map mutation now happens exactly once per
/// process (first ledger use), never inside concurrently-executing
/// transactions.
std::once_flag builtin_contracts_once;
void EnsureBuiltinContracts() {
  std::call_once(builtin_contracts_once, contracts::RegisterBuiltinContracts);
}

/// Checks input ownership and computes the total input value.
Result<Amount> ConsumeInputs(LedgerState* state, const Transaction& tx) {
  const std::vector<OutPoint>& inputs = tx.inputs();
  if (inputs.empty()) {
    return Status::InvalidArgument("non-coinbase transaction needs inputs");
  }
  Amount total = 0;
  // Validate first (no partial mutation on failure).
  for (size_t i = 0; i < inputs.size(); ++i) {
    const OutPoint& in = inputs[i];
    // A repeated outpoint would be summed twice but erased once — minting
    // value. Input lists are tiny, so the quadratic scan is free.
    for (size_t j = 0; j < i; ++j) {
      if (inputs[j] == in) {
        return Status::InvalidArgument("duplicate input outpoint");
      }
    }
    const TxOutput* output = state->utxos.Find(in);
    if (output == nullptr) {
      return Status::InvalidArgument("input not in UTXO set (double spend?)");
    }
    if (output->owner != tx.signer()) {
      return Status::VerificationFailed(
          "input not owned by transaction signer");
    }
    total += output->value;
  }
  for (const OutPoint& in : inputs) state->SpendUtxo(in);
  return total;
}

void CreateOutputs(LedgerState* state, const crypto::Hash256& tx_id,
                   const std::vector<TxOutput>& outputs,
                   uint32_t first_index = 0) {
  for (uint32_t i = 0; i < outputs.size(); ++i) {
    state->AddUtxo(OutPoint{tx_id, first_index + i}, outputs[i]);
  }
}

/// True when a contract-call failure should be recorded as a reverted
/// receipt (included in the block) rather than invalidating the block.
bool IsRevert(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition ||
         status.code() == StatusCode::kVerificationFailed ||
         status.code() == StatusCode::kInvalidArgument;
}

}  // namespace

Result<Receipt> ApplyTransaction(LedgerState* state, const Transaction& tx,
                                 const BlockEnv& env) {
  EnsureBuiltinContracts();
  if (tx.chain_id() != env.chain_id) {
    return Status::InvalidArgument("transaction targets another chain");
  }
  if (!tx.VerifySignature()) {
    return Status::VerificationFailed("bad transaction signature");
  }

  const crypto::Hash256& tx_id = tx.Id();
  Receipt receipt;
  receipt.tx_id = tx_id;

  switch (tx.type()) {
    case TxType::kCoinbase:
      return Status::InvalidArgument("coinbase outside block head position");

    case TxType::kTransfer: {
      AC3_ASSIGN_OR_RETURN(Amount in_total, ConsumeInputs(state, tx));
      if (in_total != tx.TotalOutput() + tx.fee()) {
        return Status::InvalidArgument("transfer value not conserved");
      }
      CreateOutputs(state, tx_id, tx.outputs());
      receipt.note = "transfer";
      return receipt;
    }

    case TxType::kDeploy: {
      AC3_ASSIGN_OR_RETURN(Amount in_total, ConsumeInputs(state, tx));
      if (in_total != tx.TotalOutput() + tx.fee() + tx.contract_value()) {
        return Status::InvalidArgument("deploy value not conserved");
      }
      contracts::DeployContext ctx;
      ctx.chain_id = env.chain_id;
      ctx.tx_id = tx_id;
      ctx.sender = tx.signer();
      ctx.value = tx.contract_value();
      ctx.block_time = env.time;
      ctx.block_height = env.height;
      auto deployed = contracts::ContractFactory::Instance().Deploy(
          tx.contract_kind(), tx.payload(), ctx);
      if (!deployed.ok()) {
        // Malformed deployments never make it into a block.
        return deployed.status();
      }
      CreateOutputs(state, tx_id, tx.outputs());
      state->contracts.Put(tx_id, *deployed);
      receipt.contract_id = tx_id;
      receipt.state_digest = (*deployed)->StateDigest();
      receipt.note = "deployed " + tx.contract_kind();
      return receipt;
    }

    case TxType::kCall: {
      AC3_ASSIGN_OR_RETURN(contracts::ContractPtr contract,
                           state->GetContract(tx.contract_id()));
      AC3_ASSIGN_OR_RETURN(Amount in_total, ConsumeInputs(state, tx));
      if (in_total != tx.TotalOutput() + tx.fee()) {
        return Status::InvalidArgument("call value not conserved");
      }
      CreateOutputs(state, tx_id, tx.outputs());

      std::vector<contracts::Payout> payouts;
      contracts::CallContext ctx;
      ctx.chain_id = env.chain_id;
      ctx.tx_id = tx_id;
      ctx.sender = tx.signer();
      ctx.block_time = env.time;
      ctx.block_height = env.height;
      ctx.payouts = &payouts;

      receipt.contract_id = tx.contract_id();
      auto outcome = contract->Call(tx.function(), tx.payload(), ctx);
      if (!outcome.ok()) {
        if (!IsRevert(outcome.status())) return outcome.status();
        // Reverted: fee consumed, contract unchanged.
        receipt.success = false;
        receipt.state_digest = contract->StateDigest();
        receipt.note = outcome.status().ToString();
        return receipt;
      }

      // Conservation across the contract boundary: value paid out plus
      // value still locked must equal the value locked before the call.
      Amount paid = 0;
      for (const contracts::Payout& payout : payouts) paid += payout.value;
      if (paid + outcome->next->locked_value() != contract->locked_value()) {
        return Status::Internal("contract violated value conservation");
      }
      std::vector<TxOutput> payout_outputs;
      payout_outputs.reserve(payouts.size());
      for (const contracts::Payout& payout : payouts) {
        payout_outputs.push_back(TxOutput{payout.value, payout.recipient});
      }
      CreateOutputs(state, tx_id, payout_outputs,
                    static_cast<uint32_t>(tx.outputs().size()));
      state->contracts.Put(tx.contract_id(), outcome->next);
      receipt.state_digest = outcome->next->StateDigest();
      receipt.note = outcome->note;
      return receipt;
    }
  }
  return Status::Internal("unreachable transaction type");
}

Result<std::vector<Receipt>> ApplyBlockBody(LedgerState* state,
                                            const Block& block,
                                            const ChainParams& params) {
  if (block.txs.empty()) {
    return Status::InvalidArgument("block has no coinbase");
  }
  const Transaction& coinbase = block.txs[0];
  if (coinbase.type() != TxType::kCoinbase || !coinbase.inputs().empty()) {
    return Status::InvalidArgument("first transaction must be a coinbase");
  }

  BlockEnv env{block.header.chain_id, block.header.height, block.header.time};
  std::vector<Receipt> receipts;
  receipts.reserve(block.txs.size());

  // Coinbase receipt placeholder; value rule checked after fee total known.
  Receipt coinbase_receipt;
  coinbase_receipt.tx_id = coinbase.Id();
  coinbase_receipt.note = "coinbase";
  receipts.push_back(coinbase_receipt);

  Amount total_fees = 0;
  for (size_t i = 1; i < block.txs.size(); ++i) {
    const Transaction& tx = block.txs[i];
    if (tx.type() == TxType::kCoinbase) {
      return Status::InvalidArgument("duplicate coinbase");
    }
    AC3_ASSIGN_OR_RETURN(Receipt receipt, ApplyTransaction(state, tx, env));
    total_fees += tx.fee();
    receipts.push_back(std::move(receipt));
  }

  if (coinbase.TotalOutput() > params.block_reward + total_fees) {
    return Status::InvalidArgument("coinbase exceeds reward plus fees");
  }
  CreateOutputs(state, coinbase.Id(), coinbase.outputs());
  return receipts;
}

LedgerState GenesisState(const Transaction& genesis_tx) {
  LedgerState state;
  const crypto::Hash256& id = genesis_tx.Id();
  for (uint32_t i = 0; i < genesis_tx.outputs().size(); ++i) {
    state.AddUtxo(OutPoint{id, i}, genesis_tx.outputs()[i]);
  }
  return state;
}

}  // namespace ac3::chain
