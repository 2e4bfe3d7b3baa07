// Modular arithmetic and discrete-log group parameter generation.
//
// The paper's protocols rely on digital signatures (end-user transactions,
// the multisigned graph ms(D), Trent's commitment-scheme secrets in AC3TW).
// We implement real Schnorr signatures, which need a prime-order subgroup of
// Z_p*. This file provides:
//   * 64-bit modular mul/pow via unsigned __int128 `%`, for any modulus:
//     Miller–Rabin's moduli vary and reach 2^64, and the tests hold the
//     group arithmetic to this path,
//   * a deterministic Miller–Rabin primality test (exact for 64-bit inputs),
//   * generation of (p, q, g): q a ~31-bit prime, p = k*q + 1 a ~61-bit
//     prime, and g a generator of the order-q subgroup,
//   * the group's own arithmetic, which Schnorr uses: Montgomery
//     multiplication modulo p (no `%`), and a fixed-base table that makes
//     g^x three multiplications.
//
// SECURITY NOTE: the parameter sizes are deliberately tiny (a laptop could
// break them); they substitute for secp256k1 so that every sign/verify code
// path in the protocols is real while experiments stay fast.

#ifndef AC3_CRYPTO_PRIMES_H_
#define AC3_CRYPTO_PRIMES_H_

#include <cstdint>

namespace ac3::crypto {

/// (a * b) mod m without overflow, for m < 2^63.
uint64_t MulMod(uint64_t a, uint64_t b, uint64_t m);

/// (base ^ exp) mod m by square-and-multiply.
uint64_t PowMod(uint64_t base, uint64_t exp, uint64_t m);

/// Deterministic Miller–Rabin: exact for all n < 2^64 using the standard
/// 12-witness set {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}.
bool IsPrime(uint64_t n);

/// Smallest prime >= n (n >= 2).
uint64_t NextPrime(uint64_t n);

/// Schnorr group description: g generates the order-q subgroup of Z_p*.
struct GroupParams {
  uint64_t p;  ///< Modulus, prime, ~61 bits.
  uint64_t q;  ///< Subgroup order, prime, ~31 bits, q | p - 1.
  uint64_t g;  ///< Generator of the order-q subgroup.
};

/// Deterministically derives group parameters from a fixed seed. The result
/// is computed once and cached; all keys in the system share one group
/// (mirroring how all of Bitcoin shares secp256k1).
const GroupParams& DefaultGroup();

/// Generates parameters from an arbitrary seed (exposed for tests).
GroupParams GenerateGroup(uint64_t seed);

/// Montgomery arithmetic modulo a fixed odd m < 2^62, with R = 2^64.
/// Mul is one 64x64->128 product plus a REDC step; nothing divides.
/// Values "in Montgomery form" are a·R mod m, in [0, m). REDC needs m odd
/// (m^-1 mod 2^64 exists) and a·b < m·2^64, which the bound keeps for any
/// operands below 2m. Every GenerateGroup modulus qualifies
/// (p < 1.5·2^61).
class Montgomery {
 public:
  /// Throws std::invalid_argument unless m is odd and below 2^62.
  explicit Montgomery(uint64_t m);

  /// 1 in Montgomery form (R mod m).
  uint64_t One() const { return one_; }
  /// a·R mod m, for any 64-bit a (no prior reduction needed).
  uint64_t ToMont(uint64_t a) const { return Mul(a, r2_); }
  /// a·R^-1 mod m: the plain value of a Montgomery-form a.
  uint64_t FromMont(uint64_t a) const { return Redc(0, a); }
  /// a·b·R^-1 mod m: the Montgomery form of the product.
  uint64_t Mul(uint64_t a, uint64_t b) const {
    const unsigned __int128 t = static_cast<unsigned __int128>(a) * b;
    return Redc(static_cast<uint64_t>(t >> 64), static_cast<uint64_t>(t));
  }
  /// a^exp in Montgomery form, for a in Montgomery form.
  uint64_t Pow(uint64_t a, uint64_t exp) const;

 private:
  /// (hi·2^64 + lo)·R^-1 mod m, for hi < m. With u = lo·m^-1 mod 2^64,
  /// hi·2^64 + lo − u·m is a multiple of 2^64 whose high word lies in
  /// (−m, m).
  uint64_t Redc(uint64_t hi, uint64_t lo) const {
    const uint64_t u = lo * m_inv_;
    const uint64_t um_hi = static_cast<uint64_t>(
        static_cast<unsigned __int128>(u) * m_ >> 64);
    const uint64_t r = hi - um_hi;
    return hi < um_hi ? r + m_ : r;
  }

  uint64_t m_;
  uint64_t m_inv_;  ///< m^-1 mod 2^64.
  uint64_t r2_;     ///< R^2 mod m.
  uint64_t one_;    ///< R mod m.
};

/// Montgomery arithmetic modulo DefaultGroup().p.
const Montgomery& GroupMont();

/// g^x for DefaultGroup(), in GroupMont() form. A fixed-base table (four
/// 8-bit windows of g^(d·2^(8w)), 256 entries each, 8 KiB, built once
/// with the group on first use) makes x < 2^32 cost three multiplications;
/// a larger x falls back to Pow. Every Schnorr exponent is below q < 2^31.
uint64_t PowG(uint64_t x);

}  // namespace ac3::crypto

#endif  // AC3_CRYPTO_PRIMES_H_
