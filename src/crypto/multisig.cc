#include "src/crypto/multisig.h"

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
    if (!HasValidSignature(signer)) return false;
  }
  return true;
}

bool Multisignature::HasValidSignature(const PublicKey& signer) const {
  for (const MultisigPart& part : parts_) {
    if (part.signer == signer) {
      return Verify(signer, message_, part.signature);
    }
  }
  return false;
}

Hash256 Multisignature::Id() const { return Hash256::Of(Encode()); }

Bytes Multisignature::Encode() const {
  ByteWriter w;
  w.PutBytes(message_);
  w.PutU32(static_cast<uint32_t>(parts_.size()));
  for (const MultisigPart& part : parts_) {
    part.signer.EncodeTo(&w);
    part.signature.EncodeTo(&w);
  }
  return w.Take();
}

Result<Multisignature> Multisignature::Decode(const Bytes& encoded) {
  ByteReader reader(encoded);
  AC3_ASSIGN_OR_RETURN(Bytes message, reader.GetBytes());
  Multisignature ms(std::move(message));
  AC3_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
  for (uint32_t i = 0; i < count; ++i) {
    MultisigPart part;
    AC3_ASSIGN_OR_RETURN(part.signer, PublicKey::Decode(&reader));
    AC3_ASSIGN_OR_RETURN(part.signature, Signature::Decode(&reader));
    AC3_RETURN_IF_ERROR(ms.AddPart(std::move(part)));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after multisignature");
  }
  return ms;
}

}  // namespace ac3::crypto
