// HTLC: the hashlock + timelock contract of Nolan's and Herlihy's protocols
// (Section 1).
//
//   redeem(s): requires H(s) == hashlock, any time before/after — revealing
//              s on-chain is what lets upstream parties redeem in turn.
//   refund():  requires block time >= timelock — the expiry that, per the
//              paper's motivating example, costs a crashed participant
//              their asset.
//
// Deploy payload: HtlcInit.

#ifndef AC3_CONTRACTS_HTLC_CONTRACT_H_
#define AC3_CONTRACTS_HTLC_CONTRACT_H_

#include <memory>
#include <string>

#include "src/common/sim_time.h"
#include "src/contracts/atomic_swap_contract.h"
#include "src/crypto/commitment.h"

namespace ac3::contracts {

inline constexpr char kHtlcKind[] = "HTLC";

/// Constructor arguments of an HTLC.
struct HtlcInit {
  crypto::PublicKey recipient;
  crypto::Hash256 hashlock;
  TimePoint timelock = 0;  ///< Refund opens at this block time (ms).

  /// Wire order: the fields in declaration order.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.recipient, self.hashlock, self.timelock);
  }
};

class HtlcContract : public AtomicSwapContract {
 public:
  static Result<ContractPtr> Create(const Bytes& payload,
                                    const DeployContext& ctx);

  std::string Kind() const override { return kHtlcKind; }

  const crypto::Hash256& hashlock() const { return hashlock_.lock(); }
  TimePoint timelock() const { return timelock_; }

  /// args = the revealed secret preimage s.
  bool IsRedeemable(const Bytes& args, const CallContext& ctx) const override;
  /// Refund unlocks once the block time passes the timelock.
  bool IsRefundable(const Bytes& args, const CallContext& ctx) const override;

 protected:
  std::shared_ptr<AtomicSwapContract> CloneSelf() const override {
    return std::make_shared<HtlcContract>(*this);
  }

 private:
  crypto::HashlockCommitment hashlock_;
  TimePoint timelock_ = 0;
};

}  // namespace ac3::contracts

#endif  // AC3_CONTRACTS_HTLC_CONTRACT_H_
