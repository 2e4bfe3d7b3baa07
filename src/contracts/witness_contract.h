// Algorithm 3: the witness-network smart contract SCw — the AC2T
// coordinator and the heart of AC3WN.
//
// SCw registers the multisigned graph ms(D) and the expected shape of every
// asset-chain contract. Its state is the fate of the whole AC2T:
//
//   AuthorizeRedeem(e): requires(state == P and VerifyContracts(e))
//                       -> state = RDauth         (commit decision)
//   AuthorizeRefund():  requires(state == P)
//                       -> state = RFauth         (abort decision)
//
// Only the transitions P->RDauth and P->RFauth exist; their mutual
// exclusion (plus the depth-d discipline on the asset chains) is what makes
// the protocol atomic (Lemmas 5.1 / 5.3).
//
// VerifyContracts checks Section 4.3 evidence for every edge: the matching
// PermissionlessSC deployment is included in the edge's blockchain, with
// the agreed sender, recipient, asset, and with redemption/refund
// conditioned on *this* SCw at a sufficient depth.

#ifndef AC3_CONTRACTS_WITNESS_CONTRACT_H_
#define AC3_CONTRACTS_WITNESS_CONTRACT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/chain/block.h"
#include "src/contracts/contract.h"
#include "src/contracts/evidence.h"
#include "src/contracts/witness_state.h"
#include "src/crypto/multisig.h"

namespace ac3::contracts {

inline constexpr char kWitnessKind[] = "WitnessSC";
inline constexpr char kAuthorizeRedeemFunction[] = "authorize_redeem";
inline constexpr char kAuthorizeRefundFunction[] = "authorize_refund";

/// What the participants agreed one edge's contract must look like
/// (derived from the AC2T graph D when SCw is registered).
struct EdgeSpec {
  chain::ChainId chain_id = 0;       ///< e.BC — where the asset moves.
  crypto::PublicKey sender;          ///< u of e = (u, v).
  crypto::PublicKey recipient;       ///< v.
  chain::Amount amount = 0;          ///< e.a.
  /// Minimum depth d the asset contract must demand of SCw evidence
  /// (protects the *other* participants from a shallow-d contract).
  uint32_t min_evidence_depth = 0;
  /// Stable header of the asset chain: the checkpoint VerifyContracts
  /// validates deployment evidence against.
  chain::BlockHeader asset_checkpoint;
  uint32_t asset_difficulty_bits = 0;

  /// Wire order: the fields in declaration order, the checkpoint
  /// length-prefixed.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.chain_id, self.sender, self.recipient, self.amount,
          self.min_evidence_depth, Nested(self.asset_checkpoint),
          self.asset_difficulty_bits);
  }
};

/// Constructor arguments of SCw (Algorithm 3 line 5: participants + ms(D)).
struct WitnessInit {
  std::vector<crypto::PublicKey> participants;
  Bytes ms_encoded;  ///< Encoded crypto::Multisignature over (D, t).
  std::vector<EdgeSpec> edges;

  /// Wire order: the counted participants, ms(D) length-prefixed, then the
  /// counted edges, each length-prefixed.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.participants, self.ms_encoded, NestedEach(self.edges));
  }
};

/// The AuthorizeRedeem argument: one piece of deployment evidence per
/// edge, in edge order.
struct EdgeEvidence {
  std::vector<HeaderChainEvidence> per_edge;

  /// Wire order: the count, then each piece length-prefixed.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(NestedEach(self.per_edge));
  }
};

class WitnessContract : public Contract {
 public:
  static Result<ContractPtr> Create(const Bytes& payload,
                                    const DeployContext& ctx);

  std::string Kind() const override { return kWitnessKind; }
  Bytes StateDigest() const override;

  WitnessState state() const { return state_; }
  const std::vector<crypto::PublicKey>& participants() const {
    return init_.participants;
  }
  const std::vector<EdgeSpec>& edges() const { return init_.edges; }
  crypto::Hash256 ms_id() const;

  Result<CallOutcome> Call(const std::string& function, const Bytes& args,
                           const CallContext& ctx) const override;

  /// Algorithm 3 line 18: true iff `evidence` validates all the smart
  /// contracts in the AC2T (exposed for tests).
  Status VerifyContracts(const std::vector<HeaderChainEvidence>& evidence) const;

 private:
  bool IsParticipant(const crypto::PublicKey& key) const;
  /// Validates the evidence for edge `i` against init_.edges[i].
  Status VerifyEdge(size_t i, const HeaderChainEvidence& evidence) const;

  WitnessInit init_;
  WitnessState state_ = WitnessState::kPublished;
};

}  // namespace ac3::contracts

#endif  // AC3_CONTRACTS_WITNESS_CONTRACT_H_
