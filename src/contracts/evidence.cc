#include "src/contracts/evidence.h"

#include "src/chain/pow.h"

namespace ac3::contracts {

Status VerifyHeaderChainEvidence(const chain::BlockHeader& checkpoint,
                                 uint32_t required_difficulty_bits,
                                 const HeaderChainEvidence& evidence,
                                 uint32_t min_confirmations) {
  if (evidence.headers.empty()) {
    return Status::VerificationFailed("evidence has no headers");
  }
  if (evidence.target_index >= evidence.headers.size()) {
    return Status::VerificationFailed("evidence target out of range");
  }

  // 1–3. Each header extends the one before it, headers[0] the checkpoint:
  // chain id, linkage, height, difficulty and proof of work.
  AC3_RETURN_IF_ERROR(chain::CheckHeaderLink(evidence.headers[0], checkpoint,
                                             checkpoint.Hash(),
                                             required_difficulty_bits));
  for (size_t i = 1; i < evidence.headers.size(); ++i) {
    const chain::BlockHeader& parent = evidence.headers[i - 1];
    AC3_RETURN_IF_ERROR(chain::CheckHeaderLink(evidence.headers[i], parent,
                                               parent.Hash(),
                                               required_difficulty_bits));
  }

  // 4. Merkle inclusion against the target header.
  const chain::BlockHeader& target = evidence.headers[evidence.target_index];
  const crypto::Hash256 leaf_hash = crypto::Hash256::Of(evidence.leaf);
  const crypto::Hash256& root =
      evidence.leaf_is_receipt ? target.receipt_root : target.tx_root;
  if (!crypto::VerifyMerkleProof(leaf_hash, evidence.proof, root)) {
    return Status::VerificationFailed("evidence merkle proof invalid");
  }

  // 5. Stability: the target must be buried under >= min_confirmations.
  if (evidence.ConfirmationsShown() < min_confirmations) {
    return Status::VerificationFailed(
        "evidence target not buried deep enough: " +
        std::to_string(evidence.ConfirmationsShown()) + " < " +
        std::to_string(min_confirmations));
  }
  return Status::OK();
}

}  // namespace ac3::contracts
