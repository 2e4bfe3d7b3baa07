#include "src/crypto/multisig.h"

#include <algorithm>

namespace ac3::crypto {

Status Multisignature::AddSignature(const KeyPair& key) {
  MultisigPart part;
  part.signer = key.public_key();
  part.signature = key.Sign(message_);
  return AddPart(std::move(part));
}

Status Multisignature::AddPart(MultisigPart part) {
  for (const MultisigPart& existing : parts_) {
    if (existing.signer == part.signer) {
      return Status::AlreadyExists("participant already signed ms(D)");
    }
  }
  if (!Verify(part.signer, message_, part.signature)) {
    return Status::VerificationFailed("invalid signature part for ms(D)");
  }
  parts_.push_back(std::move(part));
  return Status::OK();
}

bool Multisignature::VerifyAll(
    const std::vector<PublicKey>& required_signers) const {
  for (const PublicKey& signer : required_signers) {
    const bool present = std::any_of(
        parts_.begin(), parts_.end(),
        [&signer](const MultisigPart& part) { return part.signer == signer; });
    if (!present) return false;
  }
  return true;
}

Hash256 Multisignature::Id() const { return Hash256::Of(Encode(*this)); }

Status Multisignature::CheckParts() const {
  Multisignature checked(message_);
  for (const MultisigPart& part : parts_) {
    AC3_RETURN_IF_ERROR(checked.AddPart(part));
  }
  return Status::OK();
}

}  // namespace ac3::crypto
