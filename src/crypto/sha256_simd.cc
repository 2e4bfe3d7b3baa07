#include "src/crypto/sha256_simd.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define AC3_SHA256_X86 1
#endif

namespace ac3::crypto::simd {

#ifndef AC3_SHA256_X86

bool CpuHasShaNi() { return false; }
bool CpuHasAvx2() { return false; }
bool CpuHasAvx512() { return false; }

#else  // AC3_SHA256_X86

namespace {

uint64_t ReadXcr0() {
  uint32_t eax;
  uint32_t edx;
  __asm__ __volatile__("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<uint64_t>(edx) << 32) | eax;
}

}  // namespace

bool CpuHasShaNi() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  if (!(c & bit_SSE4_1) || !(c & bit_SSSE3)) return false;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (b & bit_SHA) != 0;
}

bool CpuHasAvx2() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  // The OS must have enabled XMM+YMM state saving for AVX2 to be usable.
  if (!(c & bit_OSXSAVE) || !(c & bit_AVX)) return false;
  if ((ReadXcr0() & 0x6) != 0x6) return false;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (b & bit_AVX2) != 0;
}

bool CpuHasAvx512() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  // The OS must save XMM, YMM, opmask and both ZMM halves (XCR0 bits 1, 2,
  // 5, 6, 7) for AVX-512 to be usable.
  if (!(c & bit_OSXSAVE)) return false;
  if ((ReadXcr0() & 0xE6) != 0xE6) return false;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (b & bit_AVX512F) != 0 && (b & bit_AVX512BW) != 0 &&
         (b & bit_AVX512VL) != 0;
}

// ---- SHA-NI ---------------------------------------------------------------
//
// The state lives in the canonical SHA-NI register pair (ABEF, CDGH); a
// message group m[g] holds words W[4g..4g+3], W[4g] in the low lane. The
// schedule uses the standard sha256msg1/msg2 identity
//   m[g] = msg2(msg1(m[g-4], m[g-3]) + alignr(m[g-1], m[g-2], 4), m[g-1]).

#define AC3_TARGET_SHANI __attribute__((target("sha,sse4.1")))

namespace {

/// Packs state words a..h into (ABEF, CDGH).
AC3_TARGET_SHANI inline void PackState(const uint32_t* s, __m128i* abef,
                                       __m128i* cdgh) {
  __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s));  // DCBA
  __m128i hi =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + 4));  // HGFE
  lo = _mm_shuffle_epi32(lo, 0xB1);                              // CDAB
  hi = _mm_shuffle_epi32(hi, 0x1B);                              // EFGH
  *abef = _mm_alignr_epi8(lo, hi, 8);                            // ABEF
  *cdgh = _mm_blend_epi16(hi, lo, 0xF0);                         // CDGH
}

/// Writes (ABEF, CDGH) back as state words a..h.
AC3_TARGET_SHANI inline void UnpackState(__m128i abef, __m128i cdgh,
                                         uint32_t* s) {
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(s),
                   _mm_blend_epi16(feba, dchg, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(s + 4),
                   _mm_alignr_epi8(dchg, feba, 8));  // HGFE
}

/// Groups m[4..15] of the message schedule from m[0..3].
AC3_TARGET_SHANI inline void ExpandGroups(__m128i* m) {
  for (int g = 4; g < 16; ++g) {
    m[g] = _mm_sha256msg2_epu32(
        _mm_add_epi32(_mm_sha256msg1_epu32(m[g - 4], m[g - 3]),
                      _mm_alignr_epi8(m[g - 1], m[g - 2], 4)),
        m[g - 1]);
  }
}

/// K[4g..4g+3] + m[g]: the four rounds' inputs of group g.
AC3_TARGET_SHANI inline __m128i GroupWk(const __m128i* m, int g) {
  return _mm_add_epi32(m[g], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                                 &kRoundConstants[g * 4])));
}

/// Four rounds from `wk` = K + W of rounds 4g..4g+3.
AC3_TARGET_SHANI inline void FourRounds(__m128i* abef, __m128i* cdgh,
                                        __m128i wk) {
  *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
  *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// One compression of the message groups m[0..3] into `state` (a..h).
AC3_TARGET_SHANI inline void CompressGroups(uint32_t* state, __m128i* m) {
  __m128i abef = _mm_setzero_si128();
  __m128i cdgh = _mm_setzero_si128();
  PackState(state, &abef, &cdgh);
  const __m128i save_abef = abef;
  const __m128i save_cdgh = cdgh;
  ExpandGroups(m);
  for (int g = 0; g < 16; ++g) FourRounds(&abef, &cdgh, GroupWk(m, g));
  UnpackState(_mm_add_epi32(abef, save_abef), _mm_add_epi32(cdgh, save_cdgh),
              state);
}

}  // namespace

AC3_TARGET_SHANI void CompressShaNi(uint32_t* state, const uint8_t* block) {
  const __m128i kShuffle =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i m[16] = {};
  for (int g = 0; g < 4; ++g) {
    m[g] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + g * 16)),
        kShuffle);
  }
  CompressGroups(state, m);
}

AC3_TARGET_SHANI void HashNonceShaNi(const Sha256::NonceScanJob& job,
                                     uint64_t nonce, uint32_t* digest) {
  // The nonce block from round 14 on. Rounds 14 and 15 are the upper
  // half of group 3, run on the state after round 13.
  alignas(16) uint32_t w[16] = {};
  for (int t = 0; t < 14; ++t) w[t] = job.words[t];
  w[14] = __builtin_bswap32(static_cast<uint32_t>(nonce));
  w[15] = __builtin_bswap32(static_cast<uint32_t>(nonce >> 32));
  __m128i m[16] = {};
  for (int g = 0; g < 4; ++g) {
    m[g] = _mm_load_si128(reinterpret_cast<const __m128i*>(w + 4 * g));
  }
  ExpandGroups(m);
  __m128i abef = _mm_setzero_si128();
  __m128i cdgh = _mm_setzero_si128();
  PackState(job.state14, &abef, &cdgh);
  const __m128i next =
      _mm_sha256rnds2_epu32(cdgh, abef, _mm_shuffle_epi32(GroupWk(m, 3), 0x0E));
  cdgh = abef;
  abef = next;
  for (int g = 4; g < 16; ++g) FourRounds(&abef, &cdgh, GroupWk(m, g));
  __m128i mid_abef = _mm_setzero_si128();
  __m128i mid_cdgh = _mm_setzero_si128();
  PackState(job.midstate, &mid_abef, &mid_cdgh);
  abef = _mm_add_epi32(abef, mid_abef);
  cdgh = _mm_add_epi32(cdgh, mid_cdgh);

  // The padding block, its K + W precomputed.
  const __m128i save_abef = abef;
  const __m128i save_cdgh = cdgh;
  for (int g = 0; g < 16; ++g) {
    FourRounds(&abef, &cdgh,
               _mm_loadu_si128(
                   reinterpret_cast<const __m128i*>(job.pad_wk + 4 * g)));
  }

  // The outer hash: the inner digest words, then a 32-byte message's
  // padding.
  alignas(16) uint32_t outer[16] = {};
  UnpackState(_mm_add_epi32(abef, save_abef), _mm_add_epi32(cdgh, save_cdgh),
              outer);
  for (int t = 8; t < 16; ++t) outer[t] = kDigestPadWords[t - 8];
  for (int g = 0; g < 4; ++g) {
    m[g] = _mm_load_si128(reinterpret_cast<const __m128i*>(outer + 4 * g));
  }
  for (int i = 0; i < 8; ++i) digest[i] = Sha256::kInitialState[i];
  CompressGroups(digest, m);
}

#endif  // AC3_SHA256_X86

}  // namespace ac3::crypto::simd
