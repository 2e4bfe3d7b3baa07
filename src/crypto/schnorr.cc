#include "src/crypto/schnorr.h"

#include <cstring>
#include <span>

#include "src/crypto/primes.h"
#include "src/crypto/sha256.h"

namespace ac3::crypto {

namespace {

/// The codec's bytes for the string `tag`, at `out`.
template <size_t N>
uint8_t* StoreTag(uint8_t* out, const char (&tag)[N]) {
  out = StoreLe(out, static_cast<uint32_t>(N - 1));
  std::memcpy(out, tag, N - 1);
  return out + (N - 1);
}

/// SHA-256 of `prefix` and then `message`, read in place, as a number: the
/// digest's first 8 bytes, big-endian.
uint64_t HashToU64(std::span<const uint8_t> prefix, const Bytes& message) {
  Sha256 h;
  h.Update(prefix);
  h.Update(message);
  return Hash256(h.Finish()).Prefix64();
}

/// e = H(r || y || m) mod q, over the encoding of (u64 r, u64 y, bytes m).
uint64_t ChallengeE(uint64_t r, const PublicKey& pk, const Bytes& message) {
  uint8_t prefix[8 + 8 + 4];
  StoreLe(StoreLe(StoreLe(prefix, r), pk.y()),
          static_cast<uint32_t>(message.size()));
  return HashToU64(prefix, message) % DefaultGroup().q;
}

}  // namespace

bool PublicKey::IsValid() const { return y_ > 1 && y_ < DefaultGroup().p; }

KeyPair KeyPair::FromSeed(uint64_t seed) {
  const GroupParams& grp = DefaultGroup();
  // Map the seed through SHA-256 so nearby seeds give unrelated keys:
  // the encoding of (string "ac3wn/keygen", u64 seed).
  uint8_t input[4 + 12 + 8];
  StoreLe(StoreTag(input, "ac3wn/keygen"), seed);
  const uint64_t x =
      Hash256::Of(input).Prefix64() % (grp.q - 1) + 1;  // x in [1, q).
  PublicKey pk(GroupMont().FromMont(PowG(x)));
  return KeyPair(x, pk);
}

KeyPair KeyPair::Generate(Rng* rng) { return FromSeed(rng->NextU64()); }

Signature KeyPair::Sign(const Bytes& message) const {
  const GroupParams& grp = DefaultGroup();
  // Deterministic nonce: k = H(x || m), nonzero mod q, over
  // the encoding of (string "ac3wn/nonce", u64 x, bytes m).
  uint8_t prefix[4 + 11 + 8 + 4];
  StoreLe(StoreLe(StoreTag(prefix, "ac3wn/nonce"), secret_),
          static_cast<uint32_t>(message.size()));
  const uint64_t k = HashToU64(prefix, message) % (grp.q - 1) + 1;

  uint64_t r = GroupMont().FromMont(PowG(k));
  uint64_t e = ChallengeE(r, public_key_, message);
  uint64_t s = (k + MulMod(e, secret_, grp.q)) % grp.q;
  return Signature{e, s};
}

bool Verify(const PublicKey& pk, const Bytes& message, const Signature& sig) {
  const GroupParams& grp = DefaultGroup();
  if (!pk.IsValid()) return false;
  if (sig.e >= grp.q || sig.s >= grp.q) return false;
  const Montgomery& mont = GroupMont();
  const uint64_t y = mont.ToMont(pk.y());
  // y must lie in the order-q subgroup; otherwise y^(q-e) is not y^{-e}.
  if (mont.Pow(y, grp.q) != mont.One()) return false;
  // r' = g^s * y^{-e} = g^s * y^{q-e} (y has order q).
  uint64_t ye = mont.Pow(y, (grp.q - sig.e) % grp.q);
  uint64_t r_prime = mont.FromMont(mont.Mul(PowG(sig.s), ye));
  return ChallengeE(r_prime, pk, message) == sig.e;
}

}  // namespace ac3::crypto
