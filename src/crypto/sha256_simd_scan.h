// Internal: the fused double-SHA-256 nonce scan behind Sha256::ScanNonces,
// written once over a vector-operation set `Ops` and instantiated per
// instruction set — 16 lanes in sha256_simd_avx512.cc, 8 in
// sha256_simd_avx2.cc. Each of those translation units is compiled for
// its instruction set (src/crypto/CMakeLists.txt), so this header is
// included nowhere else, and everything here has internal linkage: no
// function built for a wider instruction set can be merged into code that
// runs before the cpuid probe.
//
// One call hashes a block header at Ops::kLanes consecutive nonces, one
// nonce per 32-bit lane:
//   1. the nonce block's rounds 14..63, from the state after round 13
//      (W0..W13 hold no nonce byte, so Sha256::PrepareNonceScan runs rounds
//      0..13 once per header);
//   2. the padding block, whose K + W the job carries precomputed;
//   3. the outer hash of the 32-byte inner digest, which never leaves the
//      vector registers.
// Only the outer digest's first word comes back, as a pre-filter mask.

#ifndef AC3_CRYPTO_SHA256_SIMD_SCAN_H_
#define AC3_CRYPTO_SHA256_SIMD_SCAN_H_

#include <cstdint>
#include <utility>

#include "src/crypto/sha256_simd.h"

// The kernel is only fast fully inlined and unrolled: every helper, the
// Ops included, must inline into Run whatever the inliner's size budget.
#define AC3_SCAN_INLINE inline __attribute__((always_inline))

namespace ac3::crypto::simd {
namespace {

/// `Ops` supplies the vector type `V` of `kLanes` 32-bit lanes and
/// Set1, Load, Add, Rotr<n>, Shr<n>, Xor3, Ch, Maj, and ZeroLanes(x, m)
/// (bit i set when lane i of x & m is zero).
template <class Ops>
class NonceScan {
 public:
  using V = typename Ops::V;
  static constexpr int kLanes = Ops::kLanes;

  static uint32_t Run(const Sha256::NonceScanJob& job, uint64_t start,
                      uint32_t prefix_mask) {
    // Raw pointers fixed at compile time: a std::array accessor called at
    // run time would be emitted from this translation unit, compiled for
    // a wider instruction set, as a symbol other code may link against.
    constexpr const uint32_t* kIv = Sha256::kInitialState.data();
    constexpr const uint32_t* kPad = kDigestPadWords.data();
    // Lane i hashes nonce start + i. The header stores the nonce
    // little-endian and SHA-256 reads big-endian words, so W14 and W15 are
    // its byte-swapped low and high halves; the 64-bit add carries into
    // the high half and wraps at 2^64 lane by lane.
    alignas(64) uint32_t low[kLanes] = {};
    alignas(64) uint32_t high[kLanes] = {};
    for (int i = 0; i < kLanes; ++i) {
      const uint64_t nonce = start + static_cast<uint64_t>(i);
      low[i] = __builtin_bswap32(static_cast<uint32_t>(nonce));
      high[i] = __builtin_bswap32(static_cast<uint32_t>(nonce >> 32));
    }

    // 1. The nonce block from round 14 on.
    V w[16] = {};
    for (int t = 0; t < 14; ++t) w[t] = Ops::Set1(job.words[t]);
    w[14] = Ops::Load(low);
    w[15] = Ops::Load(high);
    V s[8] = {};
    for (int i = 0; i < 8; ++i) s[i] = Ops::Set1(job.state14[i]);
    Block<14>(s, w, std::make_integer_sequence<int, 50>());
    V inner[8] = {};
    for (int i = 0; i < 8; ++i) {
      inner[i] = Ops::Add(s[i], Ops::Set1(job.midstate[i]));
      s[i] = inner[i];
    }

    // 2. The padding block.
    PaddingBlock(s, job.pad_wk, std::make_integer_sequence<int, 64>());

    // 3. The outer hash: the inner digest words, then the fixed padding
    // of a 32-byte message.
    for (int i = 0; i < 8; ++i) {
      w[i] = Ops::Add(inner[i], s[i]);
      s[i] = Ops::Set1(kIv[i]);
    }
    for (int t = 8; t < 16; ++t) {
      w[t] = Ops::Set1(kPad[t - 8]);
    }
    Block<0>(s, w, std::make_integer_sequence<int, 64>());
    const V word0 = Ops::Add(s[0], Ops::Set1(kIv[0]));
    return Ops::ZeroLanes(word0, Ops::Set1(prefix_mask));
  }

 private:
  static AC3_SCAN_INLINE V BigSigma0(V x) {
    return Ops::Xor3(Ops::template Rotr<2>(x), Ops::template Rotr<13>(x),
                     Ops::template Rotr<22>(x));
  }
  static AC3_SCAN_INLINE V BigSigma1(V x) {
    return Ops::Xor3(Ops::template Rotr<6>(x), Ops::template Rotr<11>(x),
                     Ops::template Rotr<25>(x));
  }
  static AC3_SCAN_INLINE V SmallSigma0(V x) {
    return Ops::Xor3(Ops::template Rotr<7>(x), Ops::template Rotr<18>(x),
                     Ops::template Shr<3>(x));
  }
  static AC3_SCAN_INLINE V SmallSigma1(V x) {
    return Ops::Xor3(Ops::template Rotr<17>(x), Ops::template Rotr<19>(x),
                     Ops::template Shr<10>(x));
  }

  /// One round over s = {a, ..., h}, with `wk` = K[t] + W[t].
  static AC3_SCAN_INLINE void Round(V* s, V wk) {
    const V t1 = Ops::Add(Ops::Add(s[7], BigSigma1(s[4])),
                          Ops::Add(Ops::Ch(s[4], s[5], s[6]), wk));
    const V t2 = Ops::Add(BigSigma0(s[0]), Ops::Maj(s[0], s[1], s[2]));
    s[7] = s[6];
    s[6] = s[5];
    s[5] = s[4];
    s[4] = Ops::Add(s[3], t1);
    s[3] = s[2];
    s[2] = s[1];
    s[1] = s[0];
    s[0] = Ops::Add(t1, t2);
  }

  /// Round t of a block whose message words sit in the 16-word ring `w`,
  /// expanding the schedule in place from round 16 on.
  template <int t>
  static AC3_SCAN_INLINE void Step(V* s, V* w) {
    if constexpr (t >= 16) {
      w[t % 16] = Ops::Add(
          Ops::Add(SmallSigma1(w[(t - 2) % 16]), w[(t - 7) % 16]),
          Ops::Add(SmallSigma0(w[(t - 15) % 16]), w[t % 16]));
    }
    constexpr uint32_t k = kRoundConstants[t];
    Round(s, Ops::Add(w[t % 16], Ops::Set1(k)));
  }

  /// Rounds kFirst, kFirst + 1, ..., 63, fully unrolled.
  template <int kFirst, int... T>
  static AC3_SCAN_INLINE void Block(V* s, V* w,
                                    std::integer_sequence<int, T...>) {
    (Step<kFirst + T>(s, w), ...);
  }

  /// The 64 rounds of a block whose K + W is known up front.
  template <int... T>
  static AC3_SCAN_INLINE void PaddingBlock(V* s, const uint32_t* wk,
                                           std::integer_sequence<int, T...>) {
    (Round(s, Ops::Set1(wk[T])), ...);
  }
};

}  // namespace
}  // namespace ac3::crypto::simd

#endif  // AC3_CRYPTO_SHA256_SIMD_SCAN_H_
