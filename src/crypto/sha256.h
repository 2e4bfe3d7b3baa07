// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the system's only hash function: it backs transaction / block /
// graph identifiers, Merkle trees, hashlocks (the paper's commitment-scheme
// example), proof-of-work, and deterministic Schnorr nonces.

#ifndef AC3_CRYPTO_SHA256_H_
#define AC3_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <span>

#include "src/common/bytes.h"

namespace ac3::crypto {

/// Incremental SHA-256 context. Typical use:
///   Sha256 h; h.Update(a); h.Update(b); auto digest = h.Finish();
///
/// Contexts are plain copyable values: copying one after absorbing a
/// prefix captures the compression-function midstate, which is how the
/// proof-of-work HeaderHasher avoids re-hashing the fixed header prefix on
/// every nonce attempt.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256();

  /// Absorbs `len` bytes.
  void Update(const uint8_t* data, size_t len);
  void Update(std::span<const uint8_t> data) {
    Update(data.data(), data.size());
  }

  /// Pads, finalizes, and returns the 32-byte digest. The context must not
  /// be reused afterwards.
  std::array<uint8_t, kDigestSize> Finish();

  /// One-shot convenience (accepts Bytes, arrays, and spans alike).
  static std::array<uint8_t, kDigestSize> Digest(
      std::span<const uint8_t> data);

  // ---- raw compression-function access (proof-of-work hot path) ----------
  //
  // The nonce search (crypto::HeaderHasher, chain::MineHeader) drives the
  // compression function directly — it does its own padding once, up
  // front, and then hashes only what depends on the nonce per attempt.
  // These hooks exist for that path; everything else should use
  // Update()/Finish().
  //
  // All of them are runtime-dispatched: a one-time cpuid probe installs
  // the top available rung of the dispatch ladder (kDispatchLadder), and
  // every level computes bit-identical digests — the scalar code is the
  // permanent oracle the dispatch-equivalence tests hold the hardware
  // paths against.

  /// The initial chaining value H(0) (FIPS 180-4, section 5.3.3).
  static constexpr std::array<uint32_t, 8> kInitialState = {
      0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
      0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

  /// One compression-function application: folds the 64-byte `block` into
  /// the 8-word chaining value `state` in place.
  static void Compress(uint32_t* state, const uint8_t* block);

  /// Everything a nonce scan needs that does not depend on the nonce, for
  /// a message whose last two 64-byte blocks are a "nonce block" — ending
  /// in the 8-byte little-endian nonce, i.e. message words W14 and W15 —
  /// and a padding block. Built once per header by PrepareNonceScan.
  struct NonceScanJob {
    uint32_t midstate[8];  ///< Chaining value before the nonce block.
    uint32_t state14[8];   ///< a..h after the nonce block's rounds 0..13,
                           ///< the last ones that read no nonce word.
    uint32_t words[14];    ///< The nonce block's words W0..W13.
    uint32_t pad_wk[64];   ///< K[t] + W[t] of the padding block.
  };

  /// Fills `job` from the chaining value before the nonce block and the
  /// two 64-byte tail `blocks` (nonce block, then padding block). The
  /// nonce bytes of the first block are ignored.
  static void PrepareNonceScan(const uint32_t* midstate,
                               const uint8_t* blocks, NonceScanJob* job);

  /// The double-SHA-256 of the job's message with one `nonce`, in full:
  /// the outer hash's state words, i.e. the digest read as eight
  /// big-endian words. One lane of ScanNonces without the pre-filter; runs
  /// on the level's SHA-NI kernel where it has one, else as scalar code.
  static void HashNonce(const NonceScanJob& job, uint64_t nonce,
                        uint32_t* digest);

  /// Consecutive nonces one ScanNonces call covers on the active level:
  /// 16 on avx512 and 8 on avx2, whose vector kernels run one nonce per
  /// lane; 1 on scalar and shani, which run HashNonce once per call.
  static size_t NonceScanLanes();

  /// The nonce scan of the active level: the double-SHA-256 of the job's
  /// message with nonces start, start + 1, ... (NonceScanLanes() of them,
  /// wrapping at 2^64). The vector kernels run the nonce block's remaining
  /// 50 rounds, the padding block, then the outer hash of the 32-byte
  /// inner digest, all in vector registers. Bit i of the result is set
  /// when the outer digest of nonce start + i has its first four bytes,
  /// read big-endian, AND `prefix_mask` equal to zero: a pre-filter the
  /// caller confirms with the full digest.
  static uint32_t ScanNonces(const NonceScanJob& job, uint64_t start,
                             uint32_t prefix_mask);

  // ---- runtime dispatch ---------------------------------------------------

  /// The hardware levels of the dispatch ladder.
  enum class Dispatch {
    kScalar,  ///< Portable C++ — always available; the equivalence oracle.
    kShaNi,   ///< x86 SHA-NI for every compression and HashNonce.
    kAvx2,    ///< 8-lane AVX2 nonce scan; scalar single-block hashing.
    kAvx512,  ///< 16-lane AVX-512 (F/BW/VL) nonce scan; SHA-NI (or scalar,
              ///< on CPUs without it) single-block hashing.
  };

  /// Every level, top rung first. The probe installs the first available
  /// one; the AC3_SHA256_DISPATCH pin, the dispatch-equivalence suites
  /// and the dispatch bench all enumerate this one list.
  static constexpr std::array<Dispatch, 4> kDispatchLadder = {
      Dispatch::kAvx512, Dispatch::kShaNi, Dispatch::kAvx2, Dispatch::kScalar};

  /// True when `dispatch` can run here. Scalar is always available; the
  /// hardware levels require cpuid support AND survive the
  /// AC3_SHA256_DISPATCH pin (a pinned process reports only the pinned
  /// level as available, so forced-fallback CI shards stay airtight).
  static bool DispatchAvailable(Dispatch dispatch);

  /// The active level. Defaults to the top available rung of
  /// kDispatchLadder; the AC3_SHA256_DISPATCH environment variable (a
  /// DispatchName) pins it for the whole process (ignored when it names
  /// an unavailable level).
  static Dispatch ActiveDispatch();

  /// Stable lowercase name of a level: "scalar", "shani", "avx2",
  /// "avx512".
  static const char* DispatchName(Dispatch dispatch);

  /// Forces the active level (for tests and the dispatch bench); returns
  /// false — leaving the active level unchanged — when `dispatch` is
  /// unavailable. Not thread-safe against concurrent hashing.
  static bool SetDispatch(Dispatch dispatch);

 private:
  void ProcessBlock(const uint8_t* block);

  uint32_t state_[8];
  uint64_t bit_count_ = 0;
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_ = 0;
};

}  // namespace ac3::crypto

#endif  // AC3_CRYPTO_SHA256_H_
