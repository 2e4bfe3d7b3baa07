// HeaderHasher: zero-allocation double-SHA-256 for proof-of-work nonce
// search.
//
// A PoW header preimage is a fixed-length encoding whose final 8 bytes are
// the little-endian nonce. The naive loop re-encodes the header into a
// heap buffer and hashes it from scratch on every attempt. HeaderHasher
// instead does all invariant work ONCE at construction:
//
//   * absorbs the largest 64-byte-aligned prefix that cannot overlap the
//     nonce, caching the SHA-256 compression midstate;
//   * pre-pads the remaining tail (FIPS 180-4 padding is a pure function
//     of the total length, which never changes across nonce attempts);
//   * pre-pads the fixed-shape second-hash block (32-byte digest + pad).
//
// A nonce attempt is then: patch 8 tail bytes, run the tail compressions
// from the cached midstate, and one more compression for the outer hash —
// 3 compression calls and zero allocations for the 128-byte block header
// (the naive path is 4 compressions plus a heap re-encode).
//
// HashLanesWithNonces evaluates up to Sha256::kMaxLanes nonce attempts per
// call — across one or several hashers — through Sha256::CompressBatch,
// which runs full batches of eight as one AVX2 message-parallel
// compression and pairs through the round-interleaved Compress2, so the
// serial dependency chains of independent compressions overlap. This is
// the nonce search chain::MineHeaderBatch (and hence chain::MineHeader)
// runs. Per-nonce digests are bit-identical to HashWithNonce on every
// dispatch level (pinned by tests/hotpath_test.cc and
// tests/crypto_test.cc).

#ifndef AC3_CRYPTO_HEADER_HASHER_H_
#define AC3_CRYPTO_HEADER_HASHER_H_

#include <array>
#include <cstdint>
#include <span>

#include "src/crypto/hash256.h"
#include "src/crypto/sha256.h"

namespace ac3::crypto {

class HeaderHasher {
 public:
  /// Longest supported padded tail, kept on the stack. The unpadded tail
  /// is at most 63 + 8 bytes, which pads to at most two blocks.
  static constexpr size_t kMaxTail = 2 * Sha256::kBlockSize;

  /// `preimage` is the full encoded header, including placeholder bytes
  /// for the trailing little-endian u64 nonce. Must be at least 8 bytes.
  explicit HeaderHasher(std::span<const uint8_t> preimage);

  /// Double SHA-256 of the preimage with its trailing 8 bytes replaced by
  /// `nonce` (little-endian). Allocation-free.
  Hash256 HashWithNonce(uint64_t nonce);

  /// One lane of a cross-hasher batch: a nonce attempt against a specific
  /// hasher's preimage. The same hasher may occupy several lanes (with
  /// distinct nonces); each lane uses its own per-lane tail image.
  struct Lane {
    HeaderHasher* hasher = nullptr;
    uint64_t nonce = 0;
  };

  /// HashWithNonce for up to Sha256::kMaxLanes lanes — one hasher or
  /// several — in one message-parallel pass: out[i] receives
  /// lanes[i].hasher's digest for lanes[i].nonce.
  /// CompressBatch takes fully general per-lane chaining values, so each
  /// lane runs from its own hasher's midstate — this is what lets a
  /// multi-miner nonce search (chain::MineHeaderBatch) fill all 8 AVX2
  /// lanes even when every miner searches a distinct header. Requires
  /// `n <= Sha256::kMaxLanes` and every hasher to have the same padded
  /// tail block count (always true for fixed-size block headers).
  /// Per-lane digests are bit-identical to HashWithNonce on every
  /// dispatch level.
  static void HashLanesWithNonces(const Lane* lanes, size_t n, Hash256* out);

 private:
  /// Writes `nonce` little-endian into `tail`'s nonce hole.
  void PatchNonce(uint8_t* tail, uint64_t nonce) const;

  /// Chaining value after the fixed 64-byte-aligned prefix.
  std::array<uint32_t, 8> midstate_;
  size_t tail_len_ = 0;     ///< Unpadded tail bytes (nonce hole at the end).
  size_t tail_blocks_ = 0;  ///< Padded tail length in 64-byte blocks.
  /// Per-lane pre-padded tail images; only the 8 nonce bytes change
  /// between attempts (lane 0 serves HashWithNonce, lane i the i-th lane
  /// of a HashLanesWithNonces batch).
  uint8_t tails_[Sha256::kMaxLanes][kMaxTail];
  /// Per-lane pre-padded second-hash blocks; the leading 32 bytes are
  /// overwritten with the inner digest per attempt.
  uint8_t seconds_[Sha256::kMaxLanes][Sha256::kBlockSize];
};

}  // namespace ac3::crypto

#endif  // AC3_CRYPTO_HEADER_HASHER_H_
