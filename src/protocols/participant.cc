#include "src/protocols/participant.h"

namespace ac3::protocols {

Participant::Participant(std::string name, uint64_t key_seed,
                         core::Environment* env)
    : name_(std::move(name)),
      key_(crypto::KeyPair::FromSeed(key_seed)),
      env_(env),
      node_(env->AddUserNode()) {}

bool Participant::IsUp() const { return env_->network()->IsUp(node_); }

chain::Wallet* Participant::WalletFor(chain::ChainId id) {
  auto it = wallets_.find(id);
  if (it == wallets_.end()) {
    it = wallets_.emplace(id, std::make_unique<chain::Wallet>(key_, id)).first;
  }
  return it->second.get();
}

chain::Amount Participant::BalanceOn(chain::ChainId id) const {
  const chain::Blockchain* chain = env_->blockchain(id);
  return chain == nullptr ? 0 : chain->StateAtHead().BalanceOf(pk());
}

Result<crypto::Hash256> Participant::SubmitTransfer(
    chain::ChainId id, const crypto::PublicKey& to, chain::Amount amount,
    chain::Amount fee) {
  if (!IsUp()) return Status::Unavailable(name_ + " is crashed");
  const chain::Blockchain* chain = env_->blockchain(id);
  if (chain == nullptr) return Status::InvalidArgument("unknown blockchain");
  AC3_ASSIGN_OR_RETURN(chain::Transaction tx,
                       WalletFor(id)->BuildTransfer(chain->StateAtHead(), to,
                                                    amount, fee, NextNonce()));
  env_->SubmitTransaction(node_, id, tx);
  return tx.Id();
}

Result<crypto::Hash256> Participant::SubmitCall(
    chain::ChainId id, const crypto::Hash256& contract_id,
    const std::string& function, const Bytes& args, chain::Amount fee) {
  if (!IsUp()) return Status::Unavailable(name_ + " is crashed");
  const chain::Blockchain* chain = env_->blockchain(id);
  if (chain == nullptr) return Status::InvalidArgument("unknown blockchain");
  AC3_ASSIGN_OR_RETURN(
      chain::Transaction tx,
      WalletFor(id)->BuildCall(chain->StateAtHead(), contract_id, function,
                               args, fee, NextNonce()));
  env_->SubmitTransaction(node_, id, tx);
  return tx.Id();
}

}  // namespace ac3::protocols
