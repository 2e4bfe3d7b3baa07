// The 8-lane AVX2 instantiation of the fused nonce scan
// (sha256_simd_scan.h). This translation unit is compiled with -mavx2;
// sha256.cc calls into it only after simd::CpuHasAvx2().

#include "src/crypto/sha256_simd.h"

#if defined(__x86_64__) || defined(__i386__)

#if !defined(__AVX2__)
#error "sha256_simd_avx2.cc must be compiled with AVX2 enabled"
#endif

#include <immintrin.h>

#include "src/crypto/sha256_simd_scan.h"

namespace ac3::crypto::simd {
namespace {

struct Avx2Ops {
  using V = __m256i;
  static constexpr int kLanes = 8;

  static AC3_SCAN_INLINE V Set1(uint32_t x) {
    return _mm256_set1_epi32(static_cast<int>(x));
  }
  static AC3_SCAN_INLINE V Load(const uint32_t* p) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
  }
  static AC3_SCAN_INLINE V Add(V a, V b) { return _mm256_add_epi32(a, b); }
  template <int n>
  static AC3_SCAN_INLINE V Rotr(V x) {
    return _mm256_or_si256(_mm256_srli_epi32(x, n),
                           _mm256_slli_epi32(x, 32 - n));
  }
  template <int n>
  static AC3_SCAN_INLINE V Shr(V x) {
    return _mm256_srli_epi32(x, n);
  }
  static AC3_SCAN_INLINE V Xor3(V a, V b, V c) {
    return _mm256_xor_si256(_mm256_xor_si256(a, b), c);
  }
  // ((f ^ g) & e) ^ g picks f where e is set and g elsewhere.
  static AC3_SCAN_INLINE V Ch(V e, V f, V g) {
    return _mm256_xor_si256(_mm256_and_si256(_mm256_xor_si256(f, g), e), g);
  }
  // (a & b) | (c & (a | b)) is set where at least two inputs are.
  static AC3_SCAN_INLINE V Maj(V a, V b, V c) {
    return _mm256_or_si256(_mm256_and_si256(a, b),
                           _mm256_and_si256(c, _mm256_or_si256(a, b)));
  }
  static AC3_SCAN_INLINE uint32_t ZeroLanes(V x, V mask) {
    const V zero = _mm256_cmpeq_epi32(_mm256_and_si256(x, mask),
                                      _mm256_setzero_si256());
    return static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(zero)));
  }
};

}  // namespace

uint32_t ScanNoncesAvx2(const Sha256::NonceScanJob& job, uint64_t start,
                        uint32_t prefix_mask) {
  return NonceScan<Avx2Ops>::Run(job, start, prefix_mask);
}

}  // namespace ac3::crypto::simd

#endif  // x86
