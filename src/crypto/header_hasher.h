// HeaderHasher: zero-allocation double-SHA-256 for proof-of-work nonce
// search.
//
// A PoW header preimage is a fixed-length encoding whose final 8 bytes are
// the little-endian nonce. The naive loop re-encodes the header into a
// heap buffer and hashes it from scratch on every attempt. HeaderHasher
// instead does all work that does not depend on the nonce ONCE, at
// construction (Sha256::PrepareNonceScan):
//
//   * absorbs every 64-byte block before the nonce block, caching the
//     SHA-256 compression midstate;
//   * runs the nonce block's first 14 rounds, which read no nonce word;
//   * precomputes the message schedule of the padding block (FIPS 180-4
//     padding is a pure function of the total length).
//
// HashWithNonce then runs the nonce block's last 50 rounds, the padding
// block and the outer hash for one nonce (Sha256::HashNonce), keeping the
// inner digest as words. ScanNonces is what chain::MineHeader runs: one
// Sha256::ScanNonces — on the avx512 and avx2 dispatch levels 16 or 8
// consecutive nonces in one fused vector pass, elsewhere one nonce —
// returning the nonces whose digest passes a 32-bit pre-filter, for the
// caller to confirm with HashWithNonce. Digests are bit-identical on every
// dispatch level (pinned by tests/hotpath_test.cc and
// tests/crypto_test.cc).

#ifndef AC3_CRYPTO_HEADER_HASHER_H_
#define AC3_CRYPTO_HEADER_HASHER_H_

#include <cstdint>
#include <span>

#include "src/crypto/hash256.h"
#include "src/crypto/sha256.h"

namespace ac3::crypto {

class HeaderHasher {
 public:
  /// `preimage` is the full encoded header, including placeholder bytes
  /// for the trailing little-endian u64 nonce. Its length must be a
  /// positive multiple of 64 bytes, so that the nonce ends a compression
  /// block (the 128-byte chain::BlockHeader is two); anything else throws
  /// std::invalid_argument.
  explicit HeaderHasher(std::span<const uint8_t> preimage);

  /// Double SHA-256 of the preimage with its trailing 8 bytes replaced by
  /// `nonce` (little-endian). Allocation-free.
  Hash256 HashWithNonce(uint64_t nonce) const;

  /// The outcome of one ScanNonces call.
  struct Scan {
    /// Bit i set: nonce start + i is a candidate, to confirm with
    /// HashWithNonce. Every nonce that meets a difficulty whose bits the
    /// prefix mask covers is a candidate.
    uint32_t candidates = 0;
    /// Consecutive nonces the call covered, from `start` (wrapping at
    /// 2^64); the next scan starts at start + lanes.
    uint32_t lanes = 0;
  };

  /// Scans Sha256::NonceScanLanes() nonces from `start` on (16 on avx512,
  /// 8 on avx2, 1 elsewhere), marking those whose digest's first four
  /// bytes, read big-endian, AND `prefix_mask` are zero.
  Scan ScanNonces(uint64_t start, uint32_t prefix_mask) const;

 private:
  Sha256::NonceScanJob job_;
};

}  // namespace ac3::crypto

#endif  // AC3_CRYPTO_HEADER_HASHER_H_
