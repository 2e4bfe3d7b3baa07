// Algorithm 4: the asset-chain smart contract for permissionless AC3
// (AC3WN).
//
// Both commitment-scheme instances are the pair (SCw, d): redemption and
// refund are conditioned on the *witness contract's state*, proven by
// Section 4.3 evidence:
//
//   IsRedeemable(e): e validates that SCw's state is RDauth and that the
//                    state update is at depth >= d
//   IsRefundable(e): same with RFauth
//
// Deploy payload: recipient pubkey, witness chain id, SCw contract id,
// depth d, the stored stable witness-chain header (the relay checkpoint),
// and the witness chain's difficulty.

#ifndef AC3_CONTRACTS_PERMISSIONLESS_CONTRACT_H_
#define AC3_CONTRACTS_PERMISSIONLESS_CONTRACT_H_

#include <memory>
#include <string>

#include "src/chain/block.h"
#include "src/contracts/atomic_swap_contract.h"
#include "src/contracts/evidence.h"
#include "src/contracts/witness_state.h"

namespace ac3::contracts {

inline constexpr char kPermissionlessKind[] = "PermissionlessSC";

/// Decoded constructor arguments (exposed so SCw's VerifyContracts can
/// validate a deployment against its edge specification).
struct PermissionlessInit {
  crypto::PublicKey recipient;
  chain::ChainId witness_chain_id = 0;
  crypto::Hash256 scw_id;
  uint32_t depth = 0;  ///< d: required burial of the SCw state change.
  chain::BlockHeader witness_checkpoint;
  uint32_t witness_difficulty_bits = 0;

  /// Wire order: the fields in declaration order, the checkpoint
  /// length-prefixed.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.recipient, self.witness_chain_id, self.scw_id, self.depth,
          Nested(self.witness_checkpoint), self.witness_difficulty_bits);
  }
};

class PermissionlessContract : public AtomicSwapContract {
 public:
  static Result<ContractPtr> Create(const Bytes& payload,
                                    const DeployContext& ctx);

  std::string Kind() const override { return kPermissionlessKind; }

  const PermissionlessInit& init() const { return init_; }

  /// args = encoded HeaderChainEvidence of the SCw receipt.
  bool IsRedeemable(const Bytes& args, const CallContext& ctx) const override;
  bool IsRefundable(const Bytes& args, const CallContext& ctx) const override;

 protected:
  std::shared_ptr<AtomicSwapContract> CloneSelf() const override {
    return std::make_shared<PermissionlessContract>(*this);
  }

 private:
  /// Shared logic of the two checks: evidence shows SCw in `expected` at
  /// depth >= d.
  bool WitnessStateProven(const Bytes& args, WitnessState expected) const;

  PermissionlessInit init_;
};

}  // namespace ac3::contracts

#endif  // AC3_CONTRACTS_PERMISSIONLESS_CONTRACT_H_
