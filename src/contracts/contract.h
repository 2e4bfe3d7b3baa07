// Smart-contract framework: Herlihy's "contract as an object" model that the
// paper adopts (Section 2.3).
//
// A contract is an immutable snapshot: calling a function produces a *new*
// snapshot (or fails, leaving state unchanged). Miners execute calls
// deterministically while applying a block; because snapshots are immutable
// and stored per block, contract state is automatically branch-local — a
// fork carries its own contract states, which is exactly what the fork
// experiments of Section 4.2 / Lemma 5.3 exercise.
//
// Contracts receive implicit parameters the way the paper describes:
// msg.sender (the signer of the deploy/call transaction) and msg.value (the
// asset locked at deployment).

#ifndef AC3_CONTRACTS_CONTRACT_H_
#define AC3_CONTRACTS_CONTRACT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/chain/params.h"
#include "src/common/bytes.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/crypto/hash256.h"
#include "src/crypto/schnorr.h"

namespace ac3::contracts {

/// An asset transfer ordered by a contract ("transfer a to r"). The ledger
/// materializes payouts as new unspent outputs of the call transaction.
struct Payout {
  chain::Amount value = 0;
  crypto::PublicKey recipient;
};

/// Implicit parameters of a deployment message.
struct DeployContext {
  chain::ChainId chain_id = 0;
  crypto::Hash256 tx_id;        ///< Becomes the contract id.
  crypto::PublicKey sender;     ///< msg.sender.
  chain::Amount value = 0;      ///< msg.value (locked in the contract).
  TimePoint block_time = 0;
  uint64_t block_height = 0;
};

/// Implicit parameters of a function-call message.
struct CallContext {
  chain::ChainId chain_id = 0;
  crypto::Hash256 tx_id;
  crypto::PublicKey sender;  ///< msg.sender.
  TimePoint block_time = 0;
  uint64_t block_height = 0;
  /// Out-parameter: transfers ordered by the executed function.
  std::vector<Payout>* payouts = nullptr;
};

/// Result of a function call: the successor contract snapshot plus a note
/// recorded in the receipt.
struct CallOutcome {
  std::shared_ptr<const class Contract> next;
  std::string note;
};

/// Base class for all contracts. Subclasses are value types cloned on every
/// successful state transition.
class Contract {
 public:
  virtual ~Contract() = default;

  /// The kind a deploy transaction names ("HTLC", "CentralizedSC",
  /// "PermissionlessSC", "WitnessSC" or "RelaySC"; see Deploy).
  virtual std::string Kind() const = 0;

  /// Canonical digest of the current state, recorded in receipts. Evidence
  /// checks compare these bytes (e.g. [RDauth]).
  virtual Bytes StateDigest() const = 0;

  /// Executes `function(args)` against this snapshot. On success returns
  /// the successor snapshot; on failed `requires(...)` guards returns
  /// FailedPrecondition (the ledger then emits success=false receipts and
  /// keeps this snapshot). The asset stays locked until a function pays it
  /// out via ctx->payouts.
  virtual Result<CallOutcome> Call(const std::string& function,
                                   const Bytes& args,
                                   const CallContext& ctx) const = 0;

  // ---- common fields (set by the framework at deployment) --------------
  const crypto::Hash256& id() const { return id_; }
  const crypto::PublicKey& deployer() const { return deployer_; }
  chain::Amount locked_value() const { return locked_value_; }
  chain::ChainId chain_id() const { return chain_id_; }
  uint64_t deploy_height() const { return deploy_height_; }

  /// Called once by the kind's Create right after construction.
  void BindDeployment(const DeployContext& ctx) {
    id_ = ctx.tx_id;
    deployer_ = ctx.sender;
    locked_value_ = ctx.value;
    chain_id_ = ctx.chain_id;
    deploy_height_ = ctx.block_height;
  }

  /// Copies the deployment binding onto a successor snapshot.
  void InheritBinding(const Contract& prev) {
    id_ = prev.id_;
    deployer_ = prev.deployer_;
    locked_value_ = prev.locked_value_;
    chain_id_ = prev.chain_id_;
    deploy_height_ = prev.deploy_height_;
  }

  /// Successor with the locked value released (after a payout).
  void ClearLockedValue() { locked_value_ = 0; }

 private:
  crypto::Hash256 id_;
  crypto::PublicKey deployer_;
  chain::Amount locked_value_ = 0;
  chain::ChainId chain_id_ = 0;
  uint64_t deploy_height_ = 0;
};

using ContractPtr = std::shared_ptr<const Contract>;

/// Instantiates a contract of `kind` from a deploy transaction, which
/// names its kind as a string, like naming a compiled EVM artifact. The
/// kinds are the five the protocols deploy (HTLC, CentralizedSC,
/// PermissionlessSC, WitnessSC and RelaySC), in one constant table
/// (registry.cc); any other kind is NotFound.
Result<ContractPtr> Deploy(const std::string& kind, const Bytes& payload,
                           const DeployContext& ctx);

}  // namespace ac3::contracts

#endif  // AC3_CONTRACTS_CONTRACT_H_
