// The 16-lane AVX-512 instantiation of the fused nonce scan
// (sha256_simd_scan.h). This translation unit is compiled with
// -mavx512f -mavx512bw -mavx512vl; sha256.cc calls into it only after
// simd::CpuHasAvx512().

#include "src/crypto/sha256_simd.h"

#if defined(__x86_64__) || defined(__i386__)

#if !defined(__AVX512F__) || !defined(__AVX512BW__) || !defined(__AVX512VL__)
#error "sha256_simd_avx512.cc must be compiled with AVX-512 F/BW/VL enabled"
#endif

#include <immintrin.h>

#include "src/crypto/sha256_simd_scan.h"

namespace ac3::crypto::simd {
namespace {

struct Avx512Ops {
  using V = __m512i;
  static constexpr int kLanes = 16;
  // Shifts and rotates are spelled as arithmetic on unsigned vector lanes,
  // which compiles to the same vpsrld/vprord: GCC 12's AVX-512 shift and
  // rotate intrinsics pass a self-initialised _mm512_undefined_epi32() that
  // -W(maybe-)uninitialized reports once they are inlined (GCC PR 105593).
  using U = uint32_t __attribute__((vector_size(64)));

  static AC3_SCAN_INLINE V Set1(uint32_t x) {
    return _mm512_set1_epi32(static_cast<int>(x));
  }
  static AC3_SCAN_INLINE V Load(const uint32_t* p) {
    return _mm512_load_si512(p);
  }
  static AC3_SCAN_INLINE V Add(V a, V b) { return _mm512_add_epi32(a, b); }
  template <int n>
  static AC3_SCAN_INLINE V Rotr(V x) {
    const U u = reinterpret_cast<U>(x);
    return reinterpret_cast<V>((u >> n) | (u << (32 - n)));
  }
  template <int n>
  static AC3_SCAN_INLINE V Shr(V x) {
    return reinterpret_cast<V>(reinterpret_cast<U>(x) >> n);
  }
  // vpternlogd truth tables, indexed by (a, b, c) bits: 0x96 is a ^ b ^ c,
  // 0xCA is a ? b : c, 0xE8 is majority(a, b, c).
  static AC3_SCAN_INLINE V Xor3(V a, V b, V c) {
    return _mm512_ternarylogic_epi32(a, b, c, 0x96);
  }
  static AC3_SCAN_INLINE V Ch(V e, V f, V g) {
    return _mm512_ternarylogic_epi32(e, f, g, 0xCA);
  }
  static AC3_SCAN_INLINE V Maj(V a, V b, V c) {
    return _mm512_ternarylogic_epi32(a, b, c, 0xE8);
  }
  static AC3_SCAN_INLINE uint32_t ZeroLanes(V x, V mask) {
    return _mm512_testn_epi32_mask(x, mask);
  }
};

}  // namespace

uint32_t ScanNoncesAvx512(const Sha256::NonceScanJob& job, uint64_t start,
                          uint32_t prefix_mask) {
  return NonceScan<Avx512Ops>::Run(job, start, prefix_mask);
}

}  // namespace ac3::crypto::simd

#endif  // x86
