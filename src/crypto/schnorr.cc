#include "src/crypto/schnorr.h"

#include "src/crypto/primes.h"
#include "src/crypto/sha256.h"

namespace ac3::crypto {

namespace {

/// Hash arbitrary byte fields into a uint64 (first 8 digest bytes, BE).
uint64_t HashToU64(const Bytes& data) {
  return Hash256::Of(data).Prefix64();
}

uint64_t ChallengeE(uint64_t r, const PublicKey& pk, const Bytes& message) {
  const GroupParams& grp = DefaultGroup();
  ByteWriter w;
  w.PutU64(r);
  w.PutU64(pk.y());
  w.PutBytes(message);
  return HashToU64(w.bytes()) % grp.q;
}

}  // namespace

bool PublicKey::IsValid() const { return y_ > 1 && y_ < DefaultGroup().p; }

Bytes PublicKey::Encode() const {
  ByteWriter w;
  w.PutU64(y_);
  return w.Take();
}

Result<PublicKey> PublicKey::Decode(ByteReader* reader) {
  AC3_ASSIGN_OR_RETURN(uint64_t y, reader->GetU64());
  return PublicKey(y);
}

Hash256 PublicKey::ToAddress() const { return Hash256::Of(Encode()); }

std::string PublicKey::ToHexShort() const { return ToAddress().ShortHex(); }

Bytes Signature::Encode() const {
  ByteWriter w;
  w.PutU64(e);
  w.PutU64(s);
  return w.Take();
}

Result<Signature> Signature::Decode(ByteReader* reader) {
  Signature sig;
  AC3_ASSIGN_OR_RETURN(sig.e, reader->GetU64());
  AC3_ASSIGN_OR_RETURN(sig.s, reader->GetU64());
  return sig;
}

KeyPair KeyPair::FromSeed(uint64_t seed) {
  const GroupParams& grp = DefaultGroup();
  // Map the seed through SHA-256 so nearby seeds give unrelated keys.
  ByteWriter w;
  w.PutString("ac3wn/keygen");
  w.PutU64(seed);
  uint64_t x = HashToU64(w.bytes()) % (grp.q - 1) + 1;  // x in [1, q).
  PublicKey pk(GroupMont().FromMont(PowG(x)));
  return KeyPair(x, pk);
}

KeyPair KeyPair::Generate(Rng* rng) { return FromSeed(rng->NextU64()); }

Signature KeyPair::Sign(const Bytes& message) const {
  const GroupParams& grp = DefaultGroup();
  // Deterministic nonce: k = H(x || m), nonzero mod q.
  ByteWriter nonce_input;
  nonce_input.PutString("ac3wn/nonce");
  nonce_input.PutU64(secret_);
  nonce_input.PutBytes(message);
  uint64_t k = HashToU64(nonce_input.bytes()) % (grp.q - 1) + 1;

  uint64_t r = GroupMont().FromMont(PowG(k));
  uint64_t e = ChallengeE(r, public_key_, message);
  uint64_t s = (k + MulMod(e, secret_, grp.q)) % grp.q;
  return Signature{e, s};
}

Signature KeyPair::SignString(const std::string& message) const {
  return Sign(Bytes(message.begin(), message.end()));
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

bool VerifyString(const PublicKey& pk, const std::string& message,
                  const Signature& sig) {
  return Verify(pk, Bytes(message.begin(), message.end()), sig);
}

}  // namespace ac3::crypto
