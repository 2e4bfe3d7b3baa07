// Schnorr signatures over the DefaultGroup() prime-order subgroup.
//
// These are the "digital signatures [26]" of the paper (Section 2.3): every
// end-user identity is a public key, every transaction is a signature over
// its canonical encoding, ms(D) is a vector of signatures, and Trent's
// commitment-scheme secrets in AC3TW are signatures by Trent's key.
//
// The scheme is textbook Schnorr with deterministic (RFC-6979-style) nonces:
//   sk: x in [1, q)            pk: y = g^x mod p
//   sign(m):  k = H(x || m) mod (q-1) + 1,  r = g^k mod p,
//             e = H(r || y || m) mod q,     s = (k + e*x) mod q
//   verify:   r' = g^s * y^(q - e) mod p,   accept iff H(r' || y || m) ≡ e
//
// Verify accepts only a valid key, 1 < y < p, that lies in the order-q
// subgroup (y^q = 1, checked on every call), and only e, s < q.
//
// The three hashes (key derivation, nonce, challenge) hash exactly the
// bytes the codec (src/common/bytes.h) would write for their fields: a
// length-prefixed tag or the fixed-width values, then the u32 length and
// the message. They are never decoded, so they keep their own writer:
// the fixed-width part goes into a stack buffer, and the message is read
// in place through Sha256::Update, so signing and verifying copy no
// message, and every key and signature equals the one a copied encoding
// would give (tests/encoding_test.cc pins them).
//
// The arithmetic modulo p is Montgomery multiplication (primes.h). g^x,
// for keys, nonces and Verify's g^s, reads a fixed-base table of g's
// powers built once per process, so it costs three multiplications; y^q
// and y^(q-e) are square-and-multiply.
//
// Parameter sizes are toy (see primes.h); the code paths are real.

#ifndef AC3_CRYPTO_SCHNORR_H_
#define AC3_CRYPTO_SCHNORR_H_

#include <compare>
#include <cstdint>

#include "src/common/bytes.h"
#include "src/common/random.h"
#include "src/crypto/hash256.h"

namespace ac3::crypto {

/// A public key; doubles as the on-chain identity ("address") of an
/// end-user, exactly as in the paper's data model (Section 2.2).
class PublicKey {
 public:
  PublicKey() : y_(0) {}
  explicit PublicKey(uint64_t y) : y_(y) {}

  uint64_t y() const { return y_; }
  /// 1 < y < p. Under any y ≡ 1 (mod p), y^(q-e) = 1 and r' = g^s, so
  /// anyone could pick s, solve for e and sign any message; a y >= p would
  /// alias y mod p, so one secret would sign for several addresses.
  bool IsValid() const;

  /// Wire form: y, 8 bytes LE; the input to addresses and hashes.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.y_);
  }

  auto operator<=>(const PublicKey&) const = default;

 private:
  uint64_t y_;
};

/// A Schnorr signature (e, s).
struct Signature {
  uint64_t e = 0;
  uint64_t s = 0;

  bool IsValid() const { return e != 0 || s != 0; }
  /// Wire form: e then s, 8 bytes LE each.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.e, self.s);
  }
  auto operator<=>(const Signature&) const = default;
};

/// A private/public key pair.
class KeyPair {
 public:
  /// Derives a key pair from a 64-bit seed (deterministic; used by tests and
  /// the simulator's identity factory).
  static KeyPair FromSeed(uint64_t seed);
  /// Draws a fresh key pair from `rng`.
  static KeyPair Generate(Rng* rng);

  const PublicKey& public_key() const { return public_key_; }

  /// Signs the canonical byte encoding `message`.
  Signature Sign(const Bytes& message) const;

 private:
  KeyPair(uint64_t secret, PublicKey pk)
      : secret_(secret), public_key_(pk) {}

  uint64_t secret_;
  PublicKey public_key_;
};

/// Verifies `sig` over `message` under `pk`. Stateless and deterministic —
/// this is what miners run when validating transactions and what smart
/// contracts run inside IsRedeemable/IsRefundable (Algorithm 2).
bool Verify(const PublicKey& pk, const Bytes& message, const Signature& sig);

}  // namespace ac3::crypto

#endif  // AC3_CRYPTO_SCHNORR_H_
