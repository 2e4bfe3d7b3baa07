// Participants: the end-users of the application layer (Section 2.1).
//
// A participant owns an identity (key pair), a wallet per chain, and a
// network endpoint. All of its chain interactions go through the simulated
// network, and every action first consults liveness — a crashed participant
// does nothing, which is precisely the failure mode the paper's motivating
// example (Bob's crash) hinges on.

#ifndef AC3_PROTOCOLS_PARTICIPANT_H_
#define AC3_PROTOCOLS_PARTICIPANT_H_

#include <map>
#include <memory>
#include <string>

#include "src/chain/wallet.h"
#include "src/core/environment.h"
#include "src/crypto/schnorr.h"

namespace ac3::protocols {

/// Behaviour knobs for failure / maliciousness experiments.
struct ParticipantBehavior {
  /// Votes "no" by never publishing its smart contracts.
  bool decline_publish = false;
};

class Participant {
 public:
  Participant(std::string name, uint64_t key_seed, core::Environment* env);

  const std::string& name() const { return name_; }
  const crypto::KeyPair& key() const { return key_; }
  const crypto::PublicKey& pk() const { return key_.public_key(); }
  sim::NodeId node() const { return node_; }
  ParticipantBehavior& behavior() { return behavior_; }

  /// Liveness as seen by the failure injector.
  bool IsUp() const;

  /// Wallet for `id`, created on first use.
  chain::Wallet* WalletFor(chain::ChainId id);

  /// Spendable balance at the canonical head of `id`; 0 on a chain this
  /// world lacks.
  chain::Amount BalanceOn(chain::ChainId id) const;

  // ---- build-and-submit helpers (all fail Unavailable when crashed and
  // InvalidArgument on a chain this world lacks) --------------------------

  Result<crypto::Hash256> SubmitTransfer(chain::ChainId id,
                                         const crypto::PublicKey& to,
                                         chain::Amount amount,
                                         chain::Amount fee);
  Result<crypto::Hash256> SubmitCall(chain::ChainId id,
                                     const crypto::Hash256& contract_id,
                                     const std::string& function,
                                     const Bytes& args, chain::Amount fee);

 private:
  uint64_t NextNonce() { return nonce_counter_++; }

  std::string name_;
  crypto::KeyPair key_;
  core::Environment* env_;
  sim::NodeId node_;
  ParticipantBehavior behavior_;
  std::map<chain::ChainId, std::unique_ptr<chain::Wallet>> wallets_;
  uint64_t nonce_counter_ = 1;
};

}  // namespace ac3::protocols

#endif  // AC3_PROTOCOLS_PARTICIPANT_H_
