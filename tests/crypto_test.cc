// Unit tests for src/crypto: SHA-256 (NIST vectors), primes/group
// generation, Schnorr signatures, multisignatures, Merkle proofs, and
// commitment schemes.

#include <array>
#include <compare>
#include <cstring>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/crypto/commitment.h"
#include "src/crypto/hash256.h"
#include "src/crypto/merkle.h"
#include "src/crypto/multisig.h"
#include "src/crypto/primes.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"
#include "tests/dispatch_test_util.h"
#include "tests/test_util.h"

namespace ac3::crypto {
namespace {

Bytes StrBytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

// ---------------------------------------------------------------- SHA-256

TEST(Sha256Test, EmptyStringVector) {
  // NIST: SHA-256("") =
  // e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
  EXPECT_EQ(Hash256::Of({}).ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, AbcVector) {
  // NIST: SHA-256("abc") =
  // ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad
  EXPECT_EQ(Hash256::OfString("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessageVector) {
  // NIST: SHA-256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
  EXPECT_EQ(
      Hash256::OfString(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAVector) {
  // NIST: SHA-256 of one million 'a' characters.
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(Hash256(h.Finish()).ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Bytes data = StrBytes("the quick brown fox jumps over the lazy dog etc");
  for (size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.Update(data.data(), split);
    h.Update(data.data() + split, data.size() - split);
    EXPECT_EQ(Hash256(h.Finish()), Hash256::Of(data)) << "split=" << split;
  }
}

TEST(Sha256Test, PaddingBoundaries) {
  // Lengths around the 55/56/64-byte padding edges must all work.
  for (size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    Bytes data(len, 0x5a);
    Sha256 a;
    a.Update(data);
    Sha256 b;
    for (uint8_t byte : data) b.Update(&byte, 1);
    EXPECT_EQ(Hash256(a.Finish()), Hash256(b.Finish())) << "len=" << len;
  }
}

// ------------------------------------------------- SHA-256 dispatch ladder

using ::ac3::testutil::AvailableDispatches;
using ::ac3::testutil::DispatchGuard;

/// An oracle for Finish's padding that shares no code with Update or
/// Finish: the FIPS 180-4 (5.1.1) padded message built here, folded block
/// by block with the raw compression function from H(0).
Hash256 FipsPaddedDigest(const Bytes& message) {
  Bytes padded = message;
  padded.push_back(0x80);
  while (padded.size() % Sha256::kBlockSize != Sha256::kBlockSize - 8) {
    padded.push_back(0);
  }
  const uint64_t bits = static_cast<uint64_t>(message.size()) * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<uint8_t>(bits >> shift));
  }
  std::array<uint32_t, 8> state = Sha256::kInitialState;
  for (size_t offset = 0; offset < padded.size();
       offset += Sha256::kBlockSize) {
    Sha256::Compress(state.data(), padded.data() + offset);
  }
  std::array<uint8_t, Sha256::kDigestSize> digest{};
  for (size_t i = 0; i < state.size(); ++i) {
    for (size_t b = 0; b < 4; ++b) {
      digest[4 * i + b] = static_cast<uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return Hash256(digest);
}

// PaddingBoundaries compares two ways into the same Finish, so a padding
// bug there cancels out. This holds Finish against the oracle at every
// message length through two full blocks, which puts every buffered length
// 0..63 (55/56 and the two-block 56..63 among them) in front of Finish.
TEST(Sha256Test, FinishMatchesFipsPaddingOracleAtEveryLength) {
  DispatchGuard guard;
  Rng rng(1804);
  for (Sha256::Dispatch level : AvailableDispatches()) {
    ASSERT_TRUE(Sha256::SetDispatch(level));
    for (size_t len = 0; len <= 130; ++len) {
      Bytes data(len);
      for (uint8_t& byte : data) byte = static_cast<uint8_t>(rng.NextU64());
      EXPECT_EQ(Hash256::Of(data), FipsPaddedDigest(data))
          << "len " << len << " level " << Sha256::DispatchName(level);
    }
  }
}

TEST(Sha256DispatchTest, ActiveLevelIsAvailableAndNamed) {
  const Sha256::Dispatch active = Sha256::ActiveDispatch();
  EXPECT_TRUE(Sha256::DispatchAvailable(active));
  EXPECT_STRNE(Sha256::DispatchName(active), "?");
  EXPECT_STREQ(Sha256::DispatchName(Sha256::Dispatch::kScalar), "scalar");
  EXPECT_STREQ(Sha256::DispatchName(Sha256::Dispatch::kShaNi), "shani");
  EXPECT_STREQ(Sha256::DispatchName(Sha256::Dispatch::kAvx2), "avx2");
  EXPECT_STREQ(Sha256::DispatchName(Sha256::Dispatch::kAvx512), "avx512");
  // SetDispatch round-trips on the active level, and the scan width fits
  // the 32-bit candidate mask on every level.
  EXPECT_TRUE(Sha256::SetDispatch(active));
  EXPECT_GE(Sha256::NonceScanLanes(), 1u);
  EXPECT_LE(Sha256::NonceScanLanes(), 32u);
}

// The ladder lists every level once, top rung first, with scalar — the
// level every process can run — at the bottom; without a pin the probe
// installs the first available rung.
TEST(Sha256DispatchTest, LadderListsEveryLevelTopRungFirst) {
  const auto& ladder = Sha256::kDispatchLadder;
  EXPECT_EQ(ladder.front(), Sha256::Dispatch::kAvx512);
  EXPECT_EQ(ladder.back(), Sha256::Dispatch::kScalar);
  for (size_t i = 0; i < ladder.size(); ++i) {
    for (size_t j = i + 1; j < ladder.size(); ++j) {
      EXPECT_NE(ladder[i], ladder[j]);
    }
  }
  if (!Sha256::DispatchAvailable(Sha256::Dispatch::kScalar)) {
    GTEST_SKIP() << "process pinned to a non-scalar level";
  }
  for (Sha256::Dispatch level : ladder) {
    if (Sha256::DispatchAvailable(level)) {
      EXPECT_EQ(Sha256::ActiveDispatch(), level);
      break;
    }
  }
}

// Every available hardware level must produce bit-identical digests to
// the scalar oracle, across message lengths covering multi-block inputs
// and every padding edge.
TEST(Sha256DispatchTest, EveryAvailableLevelMatchesScalarDigests) {
  DispatchGuard guard;
  if (!Sha256::DispatchAvailable(Sha256::Dispatch::kScalar)) {
    GTEST_SKIP() << "process pinned to a non-scalar level";
  }
  Rng rng(20260730);
  for (size_t len : {0u, 1u, 31u, 55u, 56u, 63u, 64u, 65u, 127u, 128u, 200u,
                     1000u}) {
    Bytes data(len);
    for (uint8_t& byte : data) byte = static_cast<uint8_t>(rng.NextU64());
    ASSERT_TRUE(Sha256::SetDispatch(Sha256::Dispatch::kScalar));
    const Hash256 oracle = Hash256::Of(data);
    const Hash256 double_oracle = Hash256::DoubleOf(data);
    for (Sha256::Dispatch level : AvailableDispatches()) {
      ASSERT_TRUE(Sha256::SetDispatch(level));
      EXPECT_EQ(Hash256::Of(data), oracle)
          << "len " << len << " level " << Sha256::DispatchName(level);
      EXPECT_EQ(Hash256::DoubleOf(data), double_oracle)
          << "len " << len << " level " << Sha256::DispatchName(level);
    }
  }
}

// ---------------------------------------------------------------- Hash256

TEST(Hash256Test, DefaultIsZero) {
  Hash256 h;
  EXPECT_TRUE(h.IsZero());
  EXPECT_EQ(h.ToHex(), std::string(64, '0'));
}

TEST(Hash256Test, HexRoundTrip) {
  Hash256 h = Hash256::OfString("roundtrip");
  auto parsed = Hash256::FromHex(h.ToHex());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, h);
}

TEST(Hash256Test, FromHexRejectsWrongLength) {
  EXPECT_FALSE(Hash256::FromHex("abcd").ok());
}

TEST(Hash256Test, OrderingIsLexicographic) {
  Hash256 a = Hash256::OfString("a");
  Hash256 b = Hash256::OfString("b");
  EXPECT_NE(a, b);
  EXPECT_TRUE((a < b) != (b < a));
}

Hash256 RandomHash(Rng* rng) {
  std::array<uint8_t, Hash256::kSize> raw;
  for (uint8_t& byte : raw) byte = static_cast<uint8_t>(rng->NextU64());
  return Hash256(raw);
}

/// Checks a <=> b, b <=> a, == and < against the sign of memcmp.
void ExpectMemcmpOrder(const Hash256& a, const Hash256& b) {
  const int cmp = std::memcmp(a.bytes(), b.bytes(), Hash256::kSize);
  const std::strong_ordering want = cmp < 0   ? std::strong_ordering::less
                                    : cmp > 0 ? std::strong_ordering::greater
                                              : std::strong_ordering::equal;
  EXPECT_EQ(a <=> b, want) << a.ToHex() << " vs " << b.ToHex();
  EXPECT_EQ(b <=> a, 0 <=> (a <=> b)) << a.ToHex() << " vs " << b.ToHex();
  EXPECT_EQ(a == b, cmp == 0);
  EXPECT_EQ(a < b, cmp < 0);
}

// The word compare is memcmp's byte order: on random pairs, on pairs that
// differ in one byte at either end of a word (0, 7, 8, 31), and on pairs
// that differ only in one byte's top bit, where a signed byte would order
// the other way.
TEST(Hash256Test, OrderMatchesMemcmp) {
  Rng rng(30030);
  for (int i = 0; i < 5000; ++i) {
    ExpectMemcmpOrder(RandomHash(&rng), RandomHash(&rng));
  }
  for (const size_t byte : {0u, 7u, 8u, 31u}) {
    for (int i = 0; i < 200; ++i) {
      const Hash256 a = RandomHash(&rng);
      std::array<uint8_t, Hash256::kSize> raw = a.data();
      raw[byte] = static_cast<uint8_t>(raw[byte] + 1 + rng.NextU64() % 255);
      ExpectMemcmpOrder(a, Hash256(raw));
      ExpectMemcmpOrder(a, a);
    }
  }
  for (size_t byte = 0; byte < Hash256::kSize; ++byte) {
    std::array<uint8_t, Hash256::kSize> raw = RandomHash(&rng).data();
    raw[byte] &= 0x7f;
    const Hash256 low(raw);
    raw[byte] |= 0x80;
    ExpectMemcmpOrder(low, Hash256(raw));
  }
}

TEST(Hash256Test, DoubleHashDiffersFromSingle) {
  Bytes data = StrBytes("pow-header");
  EXPECT_NE(Hash256::Of(data), Hash256::DoubleOf(data));
}

TEST(Hash256Test, Prefix64IsBigEndianOfFirstBytes) {
  std::array<uint8_t, 32> raw{};
  raw[0] = 0x01;
  raw[7] = 0xff;
  Hash256 h(raw);
  EXPECT_EQ(h.Prefix64(), 0x01000000000000ffULL);
}

// ---------------------------------------------------------------- primes

TEST(PrimesTest, SmallPrimes) {
  EXPECT_TRUE(IsPrime(2));
  EXPECT_TRUE(IsPrime(3));
  EXPECT_TRUE(IsPrime(97));
  EXPECT_FALSE(IsPrime(0));
  EXPECT_FALSE(IsPrime(1));
  EXPECT_FALSE(IsPrime(91));  // 7 * 13
  EXPECT_FALSE(IsPrime(561));  // Carmichael number.
}

TEST(PrimesTest, LargeKnownPrimes) {
  EXPECT_TRUE(IsPrime(2305843009213693951ULL));   // 2^61 - 1 (Mersenne).
  EXPECT_FALSE(IsPrime(2305843009213693953ULL));  // 2^61 + 1 composite.
  EXPECT_TRUE(IsPrime(18446744073709551557ULL));  // Largest 64-bit prime.
}

TEST(PrimesTest, NextPrime) {
  EXPECT_EQ(NextPrime(2), 2u);
  EXPECT_EQ(NextPrime(14), 17u);
  EXPECT_EQ(NextPrime(97), 97u);
}

TEST(PrimesTest, PowModMatchesNaive) {
  for (uint64_t b : {2ULL, 3ULL, 10ULL}) {
    uint64_t naive = 1;
    for (int e = 0; e < 20; ++e) {
      EXPECT_EQ(PowMod(b, e, 1000000007ULL), naive % 1000000007ULL);
      naive = naive * b % 1000000007ULL;
    }
  }
}

TEST(PrimesTest, MulModNoOverflow) {
  uint64_t m = 2305843009213693951ULL;  // 2^61 - 1.
  uint64_t a = m - 1, b = m - 2;
  // (m-1)(m-2) mod m = (-1)(-2) mod m = 2.
  EXPECT_EQ(MulMod(a, b, m), 2u);
}

TEST(PrimesTest, GroupParamsAreConsistent) {
  const GroupParams& grp = DefaultGroup();
  EXPECT_TRUE(IsPrime(grp.p));
  EXPECT_TRUE(IsPrime(grp.q));
  EXPECT_EQ((grp.p - 1) % grp.q, 0u);
  EXPECT_NE(grp.g, 1u);
  EXPECT_EQ(PowMod(grp.g, grp.q, grp.p), 1u);  // g has order dividing q.
  EXPECT_NE(PowMod(grp.g, 1, grp.p), 1u);      // ...and not order 1.
}

TEST(PrimesTest, GenerateGroupDeterministic) {
  GroupParams a = GenerateGroup(42);
  GroupParams b = GenerateGroup(42);
  EXPECT_EQ(a.p, b.p);
  EXPECT_EQ(a.q, b.q);
  EXPECT_EQ(a.g, b.g);
}

TEST(PrimesTest, MontgomeryRequiresAnOddModulusBelow2To62) {
  EXPECT_THROW(Montgomery(1000000008ULL), std::invalid_argument);
  EXPECT_THROW(Montgomery(1ULL << 62), std::invalid_argument);
  EXPECT_THROW(Montgomery((1ULL << 62) + 1), std::invalid_argument);
  EXPECT_NO_THROW(Montgomery((1ULL << 62) - 1));
  for (uint64_t seed = 0; seed < 8; ++seed) {
    EXPECT_NO_THROW(Montgomery(GenerateGroup(seed).p)) << seed;
  }
}

// Differential tests: the Montgomery path and the g table against the
// `%`-based MulMod/PowMod. Bases may exceed p (ToMont reduces them);
// exponents cover the table's range and its Pow fallback (>= 2^32).

TEST(PrimesTest, MontgomeryMatchesPercentPathOnEdgeInputs) {
  const GroupParams& grp = DefaultGroup();
  const Montgomery& mont = GroupMont();
  const uint64_t bases[] = {0,     1,         grp.g, grp.p - 1,
                            grp.p, grp.p + 1, ~0ULL};
  const uint64_t exponents[] = {
      0, 1, grp.q - 1, grp.q, (1ULL << 32) - 1, 1ULL << 32, ~0ULL};
  for (uint64_t a : bases) {
    EXPECT_EQ(mont.FromMont(mont.ToMont(a)), a % grp.p) << a;
    for (uint64_t b : bases) {
      EXPECT_EQ(mont.FromMont(mont.Mul(mont.ToMont(a), mont.ToMont(b))),
                MulMod(a, b, grp.p))
          << a << " * " << b;
    }
    for (uint64_t x : exponents) {
      EXPECT_EQ(mont.FromMont(mont.Pow(mont.ToMont(a), x)),
                PowMod(a, x, grp.p))
          << a << " ^ " << x;
    }
  }
  for (uint64_t x : exponents) {
    EXPECT_EQ(mont.FromMont(PowG(x)), PowMod(grp.g, x, grp.p)) << x;
  }
}

TEST(PrimesTest, MontgomeryMatchesPercentPathOnRandomInputs) {
  Rng rng(2024);
  const GroupParams& grp = DefaultGroup();
  // Exponents of every bit width, 1 to 64.
  auto exponent = [&rng] { return rng.NextU64() >> rng.NextBelow(64); };
  // The group's modulus and three other GenerateGroup moduli: 120k
  // products and 8k powers.
  std::vector<uint64_t> moduli = {grp.p};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    moduli.push_back(GenerateGroup(seed).p);
  }
  for (uint64_t m : moduli) {
    const Montgomery mont(m);
    for (int i = 0; i < 30'000; ++i) {
      const uint64_t a = rng.NextU64();
      const uint64_t b = rng.NextU64();
      ASSERT_EQ(mont.FromMont(mont.Mul(mont.ToMont(a), mont.ToMont(b))),
                MulMod(a, b, m))
          << a << " * " << b << " mod " << m;
    }
    for (int i = 0; i < 2'000; ++i) {
      const uint64_t a = rng.NextU64();
      const uint64_t x = exponent();
      ASSERT_EQ(mont.FromMont(mont.Pow(mont.ToMont(a), x)), PowMod(a, x, m))
          << a << " ^ " << x << " mod " << m;
    }
  }
  // 20k powers of g through the table.
  for (int i = 0; i < 20'000; ++i) {
    const uint64_t x = exponent();
    ASSERT_EQ(GroupMont().FromMont(PowG(x)), PowMod(grp.g, x, grp.p)) << x;
  }
}

// ---------------------------------------------------------------- Schnorr

TEST(SchnorrTest, KeysAndSignaturesArePinned) {
  // Computed with the `%`-based PowMod arithmetic, before Montgomery form
  // and the g table: both must reproduce every key and signature bit.
  struct Pin {
    uint64_t seed, y, e, s;
  };
  for (const Pin& pin :
       {Pin{1, 32776130385685586ULL, 673818445, 1726895323},
        Pin{7, 2088838051091341077ULL, 392776806, 974308895},
        Pin{1001, 1414504452428585591ULL, 511376967, 995092691},
        Pin{~0ULL, 701404707402843426ULL, 1201147220, 371947075}}) {
    const KeyPair key = KeyPair::FromSeed(pin.seed);
    EXPECT_EQ(key.public_key().y(), pin.y) << pin.seed;
    const Signature sig = key.Sign(StrBytes("pinned message"));
    EXPECT_EQ(sig, (Signature{pin.e, pin.s})) << pin.seed;
    EXPECT_TRUE(Verify(key.public_key(), StrBytes("pinned message"), sig));
  }
}

TEST(SchnorrTest, SignVerifyRoundTrip) {
  KeyPair key = KeyPair::FromSeed(1);
  Bytes msg = StrBytes("transfer X bitcoins from Alice to Bob");
  Signature sig = key.Sign(msg);
  EXPECT_TRUE(Verify(key.public_key(), msg, sig));
}

TEST(SchnorrTest, RejectsTamperedMessage) {
  KeyPair key = KeyPair::FromSeed(2);
  Signature sig = key.Sign(StrBytes("original"));
  EXPECT_FALSE(Verify(key.public_key(), StrBytes("tampered"), sig));
}

TEST(SchnorrTest, RejectsWrongKey) {
  KeyPair alice = KeyPair::FromSeed(3);
  KeyPair bob = KeyPair::FromSeed(4);
  Bytes msg = StrBytes("message");
  Signature sig = alice.Sign(msg);
  EXPECT_FALSE(Verify(bob.public_key(), msg, sig));
}

TEST(SchnorrTest, RejectsTamperedSignature) {
  KeyPair key = KeyPair::FromSeed(5);
  Bytes msg = StrBytes("message");
  Signature sig = key.Sign(msg);
  Signature bad_e = sig;
  bad_e.e ^= 1;
  EXPECT_FALSE(Verify(key.public_key(), msg, bad_e));
  Signature bad_s = sig;
  bad_s.s ^= 1;
  EXPECT_FALSE(Verify(key.public_key(), msg, bad_s));
}

TEST(SchnorrTest, DeterministicSignatures) {
  KeyPair key = KeyPair::FromSeed(6);
  Bytes msg = StrBytes("idempotent");
  EXPECT_EQ(key.Sign(msg), key.Sign(msg));
}

TEST(SchnorrTest, DistinctSeedsDistinctKeys) {
  EXPECT_NE(KeyPair::FromSeed(7).public_key(),
            KeyPair::FromSeed(8).public_key());
}

TEST(SchnorrTest, InvalidPublicKeyRejected) {
  Signature sig{1, 1};
  EXPECT_FALSE(Verify(PublicKey(), StrBytes("m"), sig));
  // Valid means 1 < y < p.
  const GroupParams& grp = DefaultGroup();
  for (uint64_t y :
       {uint64_t{0}, uint64_t{1}, grp.p, grp.p + 1, ~uint64_t{0}}) {
    EXPECT_FALSE(PublicKey(y).IsValid()) << y;
  }
  for (uint64_t y : {uint64_t{2}, grp.g, grp.p - 1}) {
    EXPECT_TRUE(PublicKey(y).IsValid()) << y;
  }
  // A real key plus p is the same group element, but not a second address.
  const PublicKey key = KeyPair::FromSeed(11).public_key();
  EXPECT_TRUE(key.IsValid());
  EXPECT_FALSE(PublicKey(key.y() + grp.p).IsValid());
}

TEST(SchnorrTest, RejectsForgeriesUnderKeysCongruentToOne) {
  const Bytes msg = StrBytes("pay the forger");
  for (const PublicKey pk : {PublicKey(1), PublicKey(DefaultGroup().p + 1)}) {
    const Signature forged = testutil::ForgeUnderUnitKey(pk, msg);
    EXPECT_FALSE(Verify(pk, msg, forged)) << pk.y();
  }
}

TEST(SchnorrTest, EncodeDecodeRoundTrip) {
  KeyPair key = KeyPair::FromSeed(9);
  auto pk = Decode<PublicKey>(Encode(key.public_key()));
  ASSERT_TRUE(pk.ok());
  EXPECT_EQ(*pk, key.public_key());

  Signature sig = key.Sign(StrBytes("encode me"));
  auto sig2 = Decode<Signature>(Encode(sig));
  ASSERT_TRUE(sig2.ok());
  EXPECT_EQ(*sig2, sig);
}

TEST(SchnorrTest, ManyKeysAllVerify) {
  Rng rng(1234);
  for (int i = 0; i < 50; ++i) {
    KeyPair key = KeyPair::Generate(&rng);
    Bytes msg = rng.NextBytes(64);
    EXPECT_TRUE(Verify(key.public_key(), msg, key.Sign(msg)));
  }
}

// ---------------------------------------------------------------- multisig

TEST(MultisigTest, AllPartiesSignAndVerify) {
  Bytes msg = StrBytes("graph D at timestamp t");
  Multisignature ms(msg);
  KeyPair alice = KeyPair::FromSeed(10);
  KeyPair bob = KeyPair::FromSeed(11);
  ASSERT_TRUE(ms.AddSignature(alice).ok());
  ASSERT_TRUE(ms.AddSignature(bob).ok());
  EXPECT_TRUE(ms.VerifyAll({alice.public_key(), bob.public_key()}));
}

TEST(MultisigTest, MissingSignerFailsVerification) {
  Multisignature ms(StrBytes("m"));
  KeyPair alice = KeyPair::FromSeed(12);
  KeyPair bob = KeyPair::FromSeed(13);
  ASSERT_TRUE(ms.AddSignature(alice).ok());
  EXPECT_FALSE(ms.VerifyAll({alice.public_key(), bob.public_key()}));
}

TEST(MultisigTest, DuplicateSignerRejected) {
  Multisignature ms(StrBytes("m"));
  KeyPair alice = KeyPair::FromSeed(14);
  ASSERT_TRUE(ms.AddSignature(alice).ok());
  Status dup = ms.AddSignature(alice);
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

TEST(MultisigTest, ForgedPartRejectedOnAdd) {
  Multisignature ms(StrBytes("m"));
  KeyPair alice = KeyPair::FromSeed(15);
  MultisigPart part;
  part.signer = alice.public_key();
  part.signature = alice.Sign(StrBytes("different message"));
  EXPECT_EQ(ms.AddPart(part).code(), StatusCode::kVerificationFailed);
}

TEST(MultisigTest, IdStableUnderSignerOrder) {
  // Note: Id covers content, so different orders give different encodings —
  // but the *same* parts in the same order round-trip identically.
  Bytes msg = StrBytes("ordered");
  Multisignature ms(msg);
  KeyPair a = KeyPair::FromSeed(16), b = KeyPair::FromSeed(17);
  ASSERT_TRUE(ms.AddSignature(a).ok());
  ASSERT_TRUE(ms.AddSignature(b).ok());
  auto decoded = Decode<Multisignature>(Encode(ms));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->Id(), ms.Id());
  EXPECT_TRUE(decoded->VerifyAll({a.public_key(), b.public_key()}));
}

TEST(MultisigTest, DecodeRejectsTrailingBytes) {
  Multisignature ms(StrBytes("trailing"));
  ASSERT_TRUE(ms.AddSignature(KeyPair::FromSeed(16)).ok());
  Bytes encoded = Encode(ms);
  encoded.push_back(0);
  EXPECT_FALSE(Decode<Multisignature>(encoded).ok());
}

// Decoding checks every part's signature once (VerifyAll does not check
// them again), so one flipped byte of one signature fails the decode.
TEST(MultisigTest, DecodeRejectsAFlippedSignatureByte) {
  Multisignature ms(StrBytes("graph D at timestamp t"));
  ASSERT_TRUE(ms.AddSignature(KeyPair::FromSeed(20)).ok());
  ASSERT_TRUE(ms.AddSignature(KeyPair::FromSeed(21)).ok());
  const Bytes encoded = Encode(ms);
  ASSERT_TRUE(Decode<Multisignature>(encoded).ok());
  // The encoding ends with the last part's signature, e then s, 8 bytes
  // each: flip the low byte of its s, then of its e.
  for (const size_t from_end : {8u, 16u}) {
    Bytes flipped = encoded;
    flipped[flipped.size() - from_end] ^= 0x01;
    const auto decoded = Decode<Multisignature>(flipped);
    ASSERT_FALSE(decoded.ok()) << "byte " << from_end << " from the end";
    EXPECT_EQ(decoded.status().code(), StatusCode::kVerificationFailed);
  }
}

TEST(MultisigTest, VerifyAllIsFalseWhenARequiredSignerIsAbsent) {
  const KeyPair a = KeyPair::FromSeed(22), b = KeyPair::FromSeed(23),
                c = KeyPair::FromSeed(24), absent = KeyPair::FromSeed(25);
  Multisignature ms(StrBytes("m"));
  for (const KeyPair* key : {&a, &b, &c}) {
    ASSERT_TRUE(ms.AddSignature(*key).ok());
  }
  auto decoded = Decode<Multisignature>(Encode(ms));
  ASSERT_TRUE(decoded.ok());
  for (const Multisignature* held : {&ms, &*decoded}) {
    EXPECT_TRUE(held->VerifyAll({a.public_key(), b.public_key(),
                                 c.public_key()}));
    EXPECT_TRUE(held->VerifyAll({c.public_key(), a.public_key()}));
    EXPECT_FALSE(held->VerifyAll({a.public_key(), absent.public_key()}));
    EXPECT_FALSE(held->VerifyAll({absent.public_key()}));
    EXPECT_FALSE(held->VerifyAll(
        {a.public_key(), b.public_key(), c.public_key(),
         absent.public_key()}));
  }
}

TEST(MultisigTest, SignatureOrderDoesNotAffectValidity) {
  // The paper: "The order of participant signatures in ms(D) is not
  // important."  Both orders must verify.
  Bytes msg = StrBytes("any order");
  KeyPair a = KeyPair::FromSeed(18), b = KeyPair::FromSeed(19);
  Multisignature ab(msg), ba(msg);
  ASSERT_TRUE(ab.AddSignature(a).ok());
  ASSERT_TRUE(ab.AddSignature(b).ok());
  ASSERT_TRUE(ba.AddSignature(b).ok());
  ASSERT_TRUE(ba.AddSignature(a).ok());
  std::vector<PublicKey> signers = {a.public_key(), b.public_key()};
  EXPECT_TRUE(ab.VerifyAll(signers));
  EXPECT_TRUE(ba.VerifyAll(signers));
}

// ---------------------------------------------------------------- merkle

std::vector<Hash256> MakeLeaves(int n) {
  std::vector<Hash256> leaves;
  for (int i = 0; i < n; ++i) {
    leaves.push_back(Hash256::OfString("leaf" + std::to_string(i)));
  }
  return leaves;
}

TEST(MerkleTest, EmptyTreeHasZeroRoot) {
  MerkleTree tree({});
  EXPECT_TRUE(tree.root().IsZero());
}

TEST(MerkleTest, SingleLeafRootIsLeaf) {
  auto leaves = MakeLeaves(1);
  MerkleTree tree(leaves);
  EXPECT_EQ(tree.root(), leaves[0]);
}

TEST(MerkleTest, TwoLeafRoot) {
  auto leaves = MakeLeaves(2);
  MerkleTree tree(leaves);
  EXPECT_EQ(tree.root(), Hash256::OfPair(leaves[0], leaves[1]));
}

TEST(MerkleTest, OddLeafCountDuplicatesLast) {
  auto leaves = MakeLeaves(3);
  MerkleTree tree(leaves);
  Hash256 left = Hash256::OfPair(leaves[0], leaves[1]);
  Hash256 right = Hash256::OfPair(leaves[2], leaves[2]);
  EXPECT_EQ(tree.root(), Hash256::OfPair(left, right));
}

TEST(MerkleTest, ProofVerifiesForEveryLeaf) {
  for (int n : {1, 2, 3, 4, 5, 8, 13, 32, 33}) {
    auto leaves = MakeLeaves(n);
    MerkleTree tree(leaves);
    for (int i = 0; i < n; ++i) {
      auto proof = tree.Prove(i);
      ASSERT_TRUE(proof.ok()) << "n=" << n << " i=" << i;
      EXPECT_TRUE(VerifyMerkleProof(leaves[i], *proof, tree.root()))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(MerkleTest, ProofFailsForWrongLeaf) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.Prove(3);
  ASSERT_TRUE(proof.ok());
  EXPECT_FALSE(VerifyMerkleProof(leaves[4], *proof, tree.root()));
}

TEST(MerkleTest, ProofFailsForWrongRoot) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.Prove(3);
  ASSERT_TRUE(proof.ok());
  EXPECT_FALSE(
      VerifyMerkleProof(leaves[3], *proof, Hash256::OfString("bogus")));
}

TEST(MerkleTest, ProofIndexOutOfRange) {
  MerkleTree tree(MakeLeaves(4));
  EXPECT_FALSE(tree.Prove(4).ok());
}

TEST(MerkleTest, ProofEncodeDecodeRoundTrip) {
  auto leaves = MakeLeaves(7);
  MerkleTree tree(leaves);
  auto proof = tree.Prove(5);
  ASSERT_TRUE(proof.ok());
  auto decoded = Decode<MerkleProof>(Encode(*proof));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(VerifyMerkleProof(leaves[5], *decoded, tree.root()));
}

// Racing miners' blocks differ only in leaf 0 (the coinbase), so a block
// template keeps Prove(0) and folds each coinbase up it. That is sound
// only if leaf 0's path never depends on leaf 0, odd levels included.
TEST(MerkleTest, LeafZeroPathFoldsAnyLeafZero) {
  const Hash256 other = Hash256::OfString("another coinbase");
  for (int n = 1; n <= 70; ++n) {
    std::vector<Hash256> leaves = MakeLeaves(n);
    const auto proof = MerkleTree(leaves).Prove(0);
    ASSERT_TRUE(proof.ok()) << "n=" << n;
    leaves[0] = other;
    EXPECT_EQ(RootFromProof(other, *proof), MerkleTree::RootOf(leaves))
        << "n=" << n;
  }
}

TEST(MerkleTest, DecodeRejectsTrailingBytes) {
  const auto proof = MerkleTree(MakeLeaves(5)).Prove(2);
  ASSERT_TRUE(proof.ok());
  Bytes encoded = Encode(*proof);
  ASSERT_TRUE(Decode<MerkleProof>(encoded).ok());
  encoded.push_back(0);
  EXPECT_FALSE(Decode<MerkleProof>(encoded).ok());
}

TEST(MerkleTest, DecodeRejectsNonBooleanSide) {
  const auto proof = MerkleTree(MakeLeaves(5)).Prove(2);
  ASSERT_TRUE(proof.ok());
  Bytes encoded = Encode(*proof);
  // Layout: u32 leaf index, u32 step count, then per step a 32-byte
  // sibling and one side byte.
  const size_t first_side = 4 + 4 + Hash256::kSize;
  ASSERT_LE(encoded[first_side], 1);
  encoded[first_side] = 2;
  EXPECT_FALSE(Decode<MerkleProof>(encoded).ok());
}

TEST(MerkleTest, TamperedProofStepFails) {
  auto leaves = MakeLeaves(16);
  MerkleTree tree(leaves);
  auto proof = tree.Prove(9);
  ASSERT_TRUE(proof.ok());
  MerkleProof bad = *proof;
  bad.path[1].sibling = Hash256::OfString("evil");
  EXPECT_FALSE(VerifyMerkleProof(leaves[9], bad, tree.root()));
}

// ---------------------------------------------------------------- commitments

TEST(CommitmentTest, HashlockAcceptsCorrectSecret) {
  Bytes secret = StrBytes("only Alice knows s");
  auto lock = HashlockCommitment::FromSecret(secret);
  EXPECT_TRUE(lock.VerifySecret(secret));
}

TEST(CommitmentTest, HashlockRejectsWrongSecret) {
  auto lock = HashlockCommitment::FromSecret(StrBytes("s"));
  EXPECT_FALSE(lock.VerifySecret(StrBytes("not s")));
}

TEST(CommitmentTest, SignatureCommitmentRedeemRefundMutuallyExclusive) {
  KeyPair trent = KeyPair::FromSeed(100);
  Hash256 ms_id = Hash256::OfString("ms(D)");
  SignatureCommitment rd(ms_id, trent.public_key(), CommitmentTag::kRedeem);
  SignatureCommitment rf(ms_id, trent.public_key(), CommitmentTag::kRefund);

  Signature redeem_secret =
      trent.Sign(SignatureCommitmentMessage(ms_id, CommitmentTag::kRedeem));
  EXPECT_TRUE(rd.VerifySecret(redeem_secret));
  // The redeem secret must NOT open the refund commitment.
  EXPECT_FALSE(rf.VerifySecret(redeem_secret));
}

TEST(CommitmentTest, SignatureCommitmentRejectsNonTrentSigner) {
  KeyPair trent = KeyPair::FromSeed(101);
  KeyPair mallory = KeyPair::FromSeed(102);
  Hash256 ms_id = Hash256::OfString("ms(D)");
  SignatureCommitment rd(ms_id, trent.public_key(), CommitmentTag::kRedeem);
  Signature forged =
      mallory.Sign(SignatureCommitmentMessage(ms_id, CommitmentTag::kRedeem));
  EXPECT_FALSE(rd.VerifySecret(forged));
}

TEST(CommitmentTest, SignatureCommitmentBoundToGraph) {
  KeyPair trent = KeyPair::FromSeed(103);
  Hash256 ms1 = Hash256::OfString("swap 1");
  Hash256 ms2 = Hash256::OfString("swap 2");
  SignatureCommitment rd1(ms1, trent.public_key(), CommitmentTag::kRedeem);
  Signature secret_for_2 =
      trent.Sign(SignatureCommitmentMessage(ms2, CommitmentTag::kRedeem));
  EXPECT_FALSE(rd1.VerifySecret(secret_for_2));
}

TEST(CommitmentTest, TagNames) {
  EXPECT_STREQ(CommitmentTagName(CommitmentTag::kRedeem), "RD");
  EXPECT_STREQ(CommitmentTagName(CommitmentTag::kRefund), "RF");
}

}  // namespace
}  // namespace ac3::crypto
