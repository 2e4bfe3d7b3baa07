// Modular arithmetic and discrete-log group parameter generation.
//
// The paper's protocols rely on digital signatures (end-user transactions,
// the multisigned graph ms(D), Trent's commitment-scheme secrets in AC3TW).
// We implement real Schnorr signatures, which need a prime-order subgroup of
// Z_p*. This file provides:
//   * 64-bit modular mul/pow via unsigned __int128,
//   * a deterministic Miller–Rabin primality test (exact for 64-bit inputs),
//   * generation of (p, q, g): q a kSubgroupBits-bit prime, p = k*q + 1 a
//     ~kModulusBits-bit prime, and g a generator of the order-q subgroup.
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

}  // namespace ac3::crypto

#endif  // AC3_CRYPTO_PRIMES_H_
