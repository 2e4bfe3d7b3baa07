#include "src/contracts/evidence.h"

#include "src/chain/pow.h"

namespace ac3::contracts {

Bytes HeaderChainEvidence::Encode() const {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(headers.size()));
  for (const chain::BlockHeader& header : headers) {
    w.PutBytes(header.Encode());
  }
  w.PutU32(target_index);
  w.PutU8(leaf_is_receipt ? 1 : 0);
  w.PutBytes(leaf);
  w.PutBytes(proof.Encode());
  return w.Take();
}

Result<HeaderChainEvidence> HeaderChainEvidence::Decode(const Bytes& encoded) {
  ByteReader r(encoded);
  HeaderChainEvidence ev;
  AC3_ASSIGN_OR_RETURN(uint32_t count, r.GetU32());
  for (uint32_t i = 0; i < count; ++i) {
    AC3_ASSIGN_OR_RETURN(Bytes header_bytes, r.GetBytes());
    ByteReader hr(header_bytes);
    AC3_ASSIGN_OR_RETURN(chain::BlockHeader header,
                         chain::BlockHeader::Decode(&hr));
    if (!hr.AtEnd()) {
      return Status::InvalidArgument("trailing bytes after evidence header");
    }
    ev.headers.push_back(header);
  }
  AC3_ASSIGN_OR_RETURN(ev.target_index, r.GetU32());
  AC3_ASSIGN_OR_RETURN(uint8_t is_receipt, r.GetU8());
  if (is_receipt > 1) {
    return Status::InvalidArgument("evidence leaf kind not 0 or 1");
  }
  ev.leaf_is_receipt = is_receipt == 1;
  AC3_ASSIGN_OR_RETURN(ev.leaf, r.GetBytes());
  AC3_ASSIGN_OR_RETURN(Bytes proof_bytes, r.GetBytes());
  AC3_ASSIGN_OR_RETURN(ev.proof, crypto::MerkleProof::Decode(proof_bytes));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after evidence");
  }
  return ev;
}

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
