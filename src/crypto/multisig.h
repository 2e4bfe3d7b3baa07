// Multisignatures over the AC2T graph — the paper's ms(D) (Equation 1).
//
// All participants of an AC2T sign the canonical encoding of (D, t). The
// paper notes "the order of participant signatures in ms(D) is not
// important: any signature order indicates that all participants agree on
// the graph D at timestamp t". We therefore model ms(D) as the *set* of
// per-participant signatures over the same message; verification requires a
// valid signature from every expected participant (a behaviour-preserving
// flattening of the paper's nested sig(...sig((D,t),p1)...,pn) notation).
//
// Invariant: every part a Multisignature holds carries a valid signature
// by its signer over its message, and no signer appears twice. Its only
// writers check that once per part: AddSignature and AddPart as a part
// arrives, and decoding (CheckParts) for every part it reads, so a
// decoded ms(D) with one bad signature fails to decode. The message is
// fixed at construction or decode. VerifyAll therefore asks only which
// signers are present and verifies no signature again.

#ifndef AC3_CRYPTO_MULTISIG_H_
#define AC3_CRYPTO_MULTISIG_H_

#include <vector>

#include "src/common/bytes.h"
#include "src/crypto/hash256.h"
#include "src/crypto/schnorr.h"

namespace ac3::crypto {

/// One participant's contribution to a multisignature.
struct MultisigPart {
  PublicKey signer;
  Signature signature;

  /// Wire order: the signer, then the signature.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.signer, self.signature);
  }
};

/// A multisignature over one canonical message.
class Multisignature {
 public:
  Multisignature() = default;
  explicit Multisignature(Bytes message) : message_(std::move(message)) {}

  const Bytes& message() const { return message_; }
  const std::vector<MultisigPart>& parts() const { return parts_; }

  /// Adds `key`'s signature over the message. Duplicate signers are
  /// rejected (each participant signs exactly once).
  Status AddSignature(const KeyPair& key);

  /// Attaches an externally produced part (e.g. received over the network).
  Status AddPart(MultisigPart part);

  /// True iff every key in `required_signers` contributed a part. Every
  /// part already carries a valid signature (see the file comment), so
  /// this is a membership check. Extra signatures are ignored; a missing
  /// signer fails.
  bool VerifyAll(const std::vector<PublicKey>& required_signers) const;

  /// Content id of the multisignature — used as the registration key in
  /// Trent's key/value store (AC3TW) and in the witness contract (AC3WN).
  Hash256 Id() const;

  /// Wire order: the length-prefixed message, then the counted parts. A
  /// decoded part must pass AddPart's checks, as one added by its signer.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.message_, self.parts_);
    codec.Check([&self] { return self.CheckParts(); });
  }

 private:
  /// AddPart's checks over every part, in order, from an empty set.
  Status CheckParts() const;

  Bytes message_;
  std::vector<MultisigPart> parts_;
};

}  // namespace ac3::crypto

#endif  // AC3_CRYPTO_MULTISIG_H_
