#include "src/chain/ledger.h"

#include <algorithm>
#include <string>
#include <utility>

namespace ac3::chain {

Amount LedgerState::LockedValue() const {
  Amount total = 0;
  for (const auto& [id, contract] : contracts) total += contract->locked_value();
  return total;
}

Amount LedgerState::BalanceOf(const crypto::PublicKey& owner) const {
  Amount total = 0;
  for (const auto& [outpoint, output] : utxos) {
    if (output.owner == owner) total += output.value;
  }
  return total;
}

Result<contracts::ContractPtr> LedgerState::GetContract(
    const crypto::Hash256& id) const {
  const contracts::ContractPtr* contract = contracts.Find(id);
  if (contract == nullptr) {
    return Status::NotFound("no contract " + id.ShortHex());
  }
  return *contract;
}

const TxOutput* LedgerDelta::FindUtxo(const OutPoint& outpoint) const {
  const auto it = utxos_.find(outpoint);
  if (it == utxos_.end()) return base_.utxos.Find(outpoint);
  return it->second ? &*it->second : nullptr;
}

Result<contracts::ContractPtr> LedgerDelta::GetContract(
    const crypto::Hash256& id) const {
  const auto it = contracts_.find(id);
  if (it != contracts_.end()) return it->second;
  return base_.GetContract(id);
}

void LedgerDelta::CreateOutputs(const crypto::Hash256& tx_id,
                                const std::vector<TxOutput>& outputs,
                                uint32_t first_index) {
  for (uint32_t i = 0; i < outputs.size(); ++i) {
    utxos_.insert_or_assign(OutPoint{tx_id, first_index + i}, outputs[i]);
    liquid_total_ += outputs[i].value;
  }
}

void LedgerDelta::Spend(const std::vector<OutPoint>& inputs, Amount value) {
  for (const OutPoint& in : inputs) {
    // A new entry is a spent mark on a base output. An existing one is an
    // output this run created: it never reaches the base, so it goes.
    const auto [it, marked] = utxos_.try_emplace(in);
    if (!marked) utxos_.erase(it);
  }
  liquid_total_ -= value;
}

void LedgerDelta::PutContract(const crypto::Hash256& id,
                              contracts::ContractPtr contract) {
  contracts_.insert_or_assign(id, std::move(contract));
}

namespace {

/// `map`'s entries sorted by key: the commit writes in key order, so the
/// trees it builds do not depend on the hash maps' iteration order.
template <typename Map>
std::vector<const typename Map::value_type*> ByKey(const Map& map) {
  std::vector<const typename Map::value_type*> entries;
  entries.reserve(map.size());
  for (const auto& entry : map) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return entries;
}

}  // namespace

void LedgerDelta::CommitTo(LedgerState* state) const {
  for (const auto* write : ByKey(utxos_)) {
    if (write->second) {
      state->utxos.Put(write->first, *write->second);
    } else {
      state->utxos.Erase(write->first);
    }
  }
  for (const auto* write : ByKey(contracts_)) {
    state->contracts.Put(write->first, write->second);
  }
  state->liquid_total = liquid_total_;
}

namespace {

/// `*sum += value`, failing instead of wrapping past 2^64 - 1: a wrapped
/// output total could equal the inputs while paying out more than they
/// hold (Bitcoin's CVE-2010-5139).
Status AddValue(Amount value, Amount* sum) {
  if (__builtin_add_overflow(*sum, value, sum)) {
    return Status::InvalidArgument("value sum overflows");
  }
  return Status::OK();
}

/// The value check every non-coinbase kind shares, reading `view` only:
/// the inputs are present, distinct and owned by the signer, and their
/// total equals the outputs plus the fee plus `locked` (what a deploy
/// moves into its contract). Returns the inputs' total.
Result<Amount> CheckValue(const LedgerDelta& view, const Transaction& tx,
                          Amount locked, const char* kind) {
  const std::vector<OutPoint>& inputs = tx.inputs();
  if (inputs.empty()) {
    return Status::InvalidArgument("non-coinbase transaction needs inputs");
  }
  Amount in_total = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const OutPoint& in = inputs[i];
    // A repeated outpoint would be summed twice but erased once — minting
    // value. Input lists are tiny, so the quadratic scan is free.
    for (size_t j = 0; j < i; ++j) {
      if (inputs[j] == in) {
        return Status::InvalidArgument("duplicate input outpoint");
      }
    }
    const TxOutput* output = view.FindUtxo(in);
    if (output == nullptr) {
      return Status::InvalidArgument("input not in UTXO set (double spend?)");
    }
    if (output->owner != tx.signer()) {
      return Status::VerificationFailed(
          "input not owned by transaction signer");
    }
    AC3_RETURN_IF_ERROR(AddValue(output->value, &in_total));
  }
  Amount out_total = 0;
  for (const TxOutput& out : tx.outputs()) {
    AC3_RETURN_IF_ERROR(AddValue(out.value, &out_total));
  }
  AC3_RETURN_IF_ERROR(AddValue(tx.fee(), &out_total));
  AC3_RETURN_IF_ERROR(AddValue(locked, &out_total));
  if (in_total != out_total) {
    return Status::InvalidArgument(std::string(kind) + " value not conserved");
  }
  return in_total;
}

/// The writes every kind shares once its checks have passed: spends the
/// inputs, which hold `in_total`, then creates the declared outputs.
void SpendAndCreate(LedgerDelta* delta, const Transaction& tx,
                    Amount in_total) {
  delta->Spend(tx.inputs(), in_total);
  delta->CreateOutputs(tx.Id(), tx.outputs());
}

/// True when a contract-call failure should be recorded as a reverted
/// receipt (included in the block) rather than invalidating the block.
bool IsRevert(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition ||
         status.code() == StatusCode::kVerificationFailed ||
         status.code() == StatusCode::kInvalidArgument;
}

}  // namespace

Result<Receipt> ApplyTransaction(LedgerDelta* delta, const Transaction& tx,
                                 const BlockEnv& env) {
  if (tx.chain_id() != env.chain_id) {
    return Status::InvalidArgument("transaction targets another chain");
  }
  if (!tx.VerifySignature()) {
    return Status::VerificationFailed("bad transaction signature");
  }

  const crypto::Hash256& tx_id = tx.Id();
  Receipt receipt;
  receipt.tx_id = tx_id;

  // Each case checks everything before its first write to `delta`.
  switch (tx.type()) {
    case TxType::kCoinbase:
      return Status::InvalidArgument("coinbase outside block head position");

    case TxType::kTransfer: {
      AC3_ASSIGN_OR_RETURN(const Amount in_total,
                           CheckValue(*delta, tx, 0, "transfer"));
      SpendAndCreate(delta, tx, in_total);
      receipt.note = "transfer";
      return receipt;
    }

    case TxType::kDeploy: {
      AC3_ASSIGN_OR_RETURN(
          const Amount in_total,
          CheckValue(*delta, tx, tx.contract_value(), "deploy"));
      contracts::DeployContext ctx;
      ctx.chain_id = env.chain_id;
      ctx.tx_id = tx_id;
      ctx.sender = tx.signer();
      ctx.value = tx.contract_value();
      ctx.block_time = env.time;
      ctx.block_height = env.height;
      auto deployed =
          contracts::Deploy(tx.contract_kind(), tx.payload(), ctx);
      if (!deployed.ok()) {
        // Malformed deployments never make it into a block.
        return deployed.status();
      }
      SpendAndCreate(delta, tx, in_total);
      delta->PutContract(tx_id, *deployed);
      receipt.contract_id = tx_id;
      receipt.state_digest = (*deployed)->StateDigest();
      receipt.note = "deployed " + tx.contract_kind();
      return receipt;
    }

    case TxType::kCall: {
      AC3_ASSIGN_OR_RETURN(contracts::ContractPtr contract,
                           delta->GetContract(tx.contract_id()));
      AC3_ASSIGN_OR_RETURN(const Amount in_total,
                           CheckValue(*delta, tx, 0, "call"));

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
        SpendAndCreate(delta, tx, in_total);
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
      SpendAndCreate(delta, tx, in_total);
      delta->CreateOutputs(tx_id, payout_outputs,
                           static_cast<uint32_t>(tx.outputs().size()));
      delta->PutContract(tx.contract_id(), outcome->next);
      receipt.state_digest = outcome->next->StateDigest();
      receipt.note = outcome->note;
      return receipt;
    }
  }
  return Status::Internal("unreachable transaction type");
}

Result<std::vector<Receipt>> StageBlockBody(LedgerDelta* delta,
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

  Amount allowed = params.block_reward;  // Plus every fee.
  for (size_t i = 1; i < block.txs.size(); ++i) {
    const Transaction& tx = block.txs[i];
    if (tx.type() == TxType::kCoinbase) {
      return Status::InvalidArgument("duplicate coinbase");
    }
    AC3_ASSIGN_OR_RETURN(Receipt receipt, ApplyTransaction(delta, tx, env));
    AC3_RETURN_IF_ERROR(AddValue(tx.fee(), &allowed));
    receipts.push_back(std::move(receipt));
  }

  Amount paid = 0;
  for (const TxOutput& out : coinbase.outputs()) {
    AC3_RETURN_IF_ERROR(AddValue(out.value, &paid));
  }
  if (paid > allowed) {
    return Status::InvalidArgument("coinbase exceeds reward plus fees");
  }
  delta->CreateOutputs(coinbase.Id(), coinbase.outputs());
  return receipts;
}

Result<std::vector<Receipt>> ApplyBlockBody(LedgerState* state,
                                            const Block& block,
                                            const ChainParams& params) {
  LedgerDelta delta(*state);
  Result<std::vector<Receipt>> receipts = StageBlockBody(&delta, block, params);
  delta.CommitTo(state);  // An invalid body's applied prefix too.
  return receipts;
}

LedgerState GenesisState(const Transaction& genesis_tx) {
  LedgerState state;
  const crypto::Hash256& id = genesis_tx.Id();
  for (uint32_t i = 0; i < genesis_tx.outputs().size(); ++i) {
    const TxOutput& output = genesis_tx.outputs()[i];
    state.utxos.Put(OutPoint{id, i}, output);
    state.liquid_total += output.value;
  }
  return state;
}

}  // namespace ac3::chain
