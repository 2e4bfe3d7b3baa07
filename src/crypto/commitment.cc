#include "src/crypto/commitment.h"

namespace ac3::crypto {

HashlockCommitment HashlockCommitment::FromSecret(const Bytes& secret) {
  return HashlockCommitment(Hash256::Of(secret));
}

bool HashlockCommitment::VerifySecret(const Bytes& secret) const {
  return Hash256::Of(secret) == lock_;
}

const char* CommitmentTagName(CommitmentTag tag) {
  switch (tag) {
    case CommitmentTag::kRedeem:
      return "RD";
    case CommitmentTag::kRefund:
      return "RF";
  }
  return "?";
}

Bytes SignatureCommitmentMessage(const Hash256& ms_id, CommitmentTag tag) {
  return Encode(std::string_view("ac3tw/commitment"), ms_id,
                static_cast<uint8_t>(tag));
}

bool SignatureCommitment::VerifySecret(const Signature& secret) const {
  return Verify(trent_, SignatureCommitmentMessage(ms_id_, tag_), secret);
}

}  // namespace ac3::crypto
