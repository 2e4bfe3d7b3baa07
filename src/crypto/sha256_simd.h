// Internal: hardware SHA-256 kernels behind Sha256's runtime dispatch (see
// sha256.h), and the spec constants they share with the scalar code.
// Nothing here is part of the public API — the only consumer is
// sha256.cc, which probes the CPU once and installs the top available
// kernel set. Two kinds of x86 kernel are implemented:
//
//   * SHA-NI (sha extensions + SSE4.1): the hardware round/schedule
//     instructions, for every single-block compression and for the
//     single-nonce double hash (Sha256::HashNonce).
//   * The fused nonce scan: double-SHA-256 of one block header at 16
//     consecutive nonces (AVX-512) or 8 (AVX2), one nonce per 32-bit
//     vector lane. One kernel template (sha256_simd_scan.h) instantiated
//     per instruction set, each in its own translation unit compiled for
//     that set (sha256_simd_avx512.cc, sha256_simd_avx2.cc).
//
// Every kernel computes bit-identical results to Sha256's scalar code
// (the dispatch-equivalence tests in tests/crypto_test.cc and the mining
// tests in tests/hotpath_test.cc hold each one against the scalar
// oracle).

#ifndef AC3_CRYPTO_SHA256_SIMD_H_
#define AC3_CRYPTO_SHA256_SIMD_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/crypto/sha256.h"

namespace ac3::crypto::simd {

/// The round constants K (FIPS 180-4, section 4.2.2).
inline constexpr std::array<uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

/// Message words W8..W15 of the one padded block of a 32-byte message
/// (the 0x80 byte, zeros, bit length 256): the constant half of a
/// double-SHA-256's outer block.
inline constexpr std::array<uint32_t, 8> kDigestPadWords = {
    0x80000000, 0, 0, 0, 0, 0, 0, 256};

/// True when the CPU supports the SHA extensions (plus the SSE4.1 the
/// kernels' shuffles need). False on non-x86 builds.
bool CpuHasShaNi();

/// True when the CPU and OS support AVX2 (OSXSAVE with YMM state
/// enabled). False on non-x86 builds.
bool CpuHasAvx2();

/// True when the CPU supports AVX-512 F, BW and VL and the OS saves the
/// opmask and ZMM state. False on non-x86 builds.
bool CpuHasAvx512();

#if defined(__x86_64__) || defined(__i386__)

/// One SHA-NI compression: folds the 64-byte `block` into `state`.
void CompressShaNi(uint32_t* state, const uint8_t* block);

/// Sha256::HashNonce with SHA-NI. Requires CpuHasShaNi().
void HashNonceShaNi(const Sha256::NonceScanJob& job, uint64_t nonce,
                    uint32_t* digest);

/// Sha256::ScanNonces over 8 nonces with AVX2. Requires CpuHasAvx2().
uint32_t ScanNoncesAvx2(const Sha256::NonceScanJob& job, uint64_t start,
                        uint32_t prefix_mask);

/// Sha256::ScanNonces over 16 nonces with AVX-512. Requires
/// CpuHasAvx512().
uint32_t ScanNoncesAvx512(const Sha256::NonceScanJob& job, uint64_t start,
                          uint32_t prefix_mask);

#endif  // x86

}  // namespace ac3::crypto::simd

#endif  // AC3_CRYPTO_SHA256_SIMD_H_
