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

  // 1. Anchoring at the checkpoint.
  const chain::BlockHeader& first = evidence.headers[0];
  if (first.prev_hash != checkpoint.Hash()) {
    return Status::VerificationFailed(
        "evidence does not extend the stored stable block");
  }
  if (first.height != checkpoint.height + 1) {
    return Status::VerificationFailed("evidence height gap at checkpoint");
  }

  // 2–3. Linkage, heights, chain id, and per-header proof of work.
  for (size_t i = 0; i < evidence.headers.size(); ++i) {
    const chain::BlockHeader& header = evidence.headers[i];
    if (header.chain_id != checkpoint.chain_id) {
      return Status::VerificationFailed("evidence header for wrong chain");
    }
    if (header.difficulty_bits != required_difficulty_bits) {
      return Status::VerificationFailed("evidence header difficulty mismatch");
    }
    if (!chain::CheckProofOfWork(header)) {
      return Status::VerificationFailed("evidence header fails proof of work");
    }
    if (i > 0) {
      if (header.prev_hash != evidence.headers[i - 1].Hash()) {
        return Status::VerificationFailed("evidence headers do not link");
      }
      if (header.height != evidence.headers[i - 1].height + 1) {
        return Status::VerificationFailed("evidence heights not consecutive");
      }
    }
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
