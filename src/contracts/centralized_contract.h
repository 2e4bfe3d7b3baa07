// Algorithm 2: the smart contract for centralized AC3 (AC3TW).
//
// Both the redemption and refund commitment-scheme instances are the pair
// (ms(D), PK_T); the secrets are Trent's signatures over (ms(D), RD) and
// (ms(D), RF) respectively:
//
//   IsRedeemable(srd): SigVerify((ms(D), RD), PK_T, srd)
//   IsRefundable(srf): SigVerify((ms(D), RF), PK_T, srf)
//
// Deploy payload: CentralizedInit.
// Call args: an encoded Schnorr signature (the revealed secret).

#ifndef AC3_CONTRACTS_CENTRALIZED_CONTRACT_H_
#define AC3_CONTRACTS_CENTRALIZED_CONTRACT_H_

#include <memory>
#include <string>

#include "src/contracts/atomic_swap_contract.h"
#include "src/crypto/commitment.h"

namespace ac3::contracts {

inline constexpr char kCentralizedKind[] = "CentralizedSC";

/// Constructor arguments of a CentralizedSC.
struct CentralizedInit {
  crypto::PublicKey recipient;
  crypto::Hash256 ms_id;  ///< Id of ms(D), the swap's multisigned graph.
  crypto::PublicKey trent;

  /// Wire order: the fields in declaration order.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.recipient, self.ms_id, self.trent);
  }
};

class CentralizedContract : public AtomicSwapContract {
 public:
  static Result<ContractPtr> Create(const Bytes& payload,
                                    const DeployContext& ctx);

  std::string Kind() const override { return kCentralizedKind; }

  const crypto::Hash256& ms_id() const { return redeem_.ms_id(); }
  const crypto::PublicKey& trent() const { return redeem_.trent(); }

  bool IsRedeemable(const Bytes& args, const CallContext& ctx) const override;
  bool IsRefundable(const Bytes& args, const CallContext& ctx) const override;

 protected:
  std::shared_ptr<AtomicSwapContract> CloneSelf() const override {
    return std::make_shared<CentralizedContract>(*this);
  }

 private:
  static bool VerifySecret(const crypto::SignatureCommitment& commitment,
                           const Bytes& args);

  crypto::SignatureCommitment redeem_;
  crypto::SignatureCommitment refund_;
};

}  // namespace ac3::contracts

#endif  // AC3_CONTRACTS_CENTRALIZED_CONTRACT_H_
