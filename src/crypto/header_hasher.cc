#include "src/crypto/header_hasher.h"

#include <cassert>
#include <cstring>
#include <stdexcept>

namespace ac3::crypto {

namespace {

/// Serializes an 8-word chaining value as the big-endian 32-byte digest.
void StateToDigest(const uint32_t* state, uint8_t* out) {
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<uint8_t>(state[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(state[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(state[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(state[i]);
  }
}

}  // namespace

HeaderHasher::HeaderHasher(std::span<const uint8_t> preimage) {
  if (preimage.size() < 8) {
    // Defined failure in release builds too: a shorter preimage has no
    // trailing nonce field and the prefix arithmetic below would wrap.
    throw std::invalid_argument("HeaderHasher preimage shorter than a nonce");
  }
  // Absorb whole 64-byte blocks that end strictly before the nonce field;
  // everything after them (at most 63 + 8 bytes) stays in the tail, so the
  // midstate never has to be recomputed.
  const size_t prefix =
      ((preimage.size() - 8) / Sha256::kBlockSize) * Sha256::kBlockSize;
  midstate_ = Sha256::kInitialState;
  for (size_t offset = 0; offset < prefix; offset += Sha256::kBlockSize) {
    Sha256::Compress(midstate_.data(), preimage.data() + offset);
  }

  // Pre-pad the tail: message bytes, 0x80, zeros, and the 64-bit
  // big-endian TOTAL message bit length (prefix included). None of this
  // depends on the nonce, so it is done exactly once.
  tail_len_ = preimage.size() - prefix;
  const size_t padded =
      ((tail_len_ + 1 + 8 + Sha256::kBlockSize - 1) / Sha256::kBlockSize) *
      Sha256::kBlockSize;
  tail_blocks_ = padded / Sha256::kBlockSize;
  assert(padded <= kMaxTail);
  std::memset(tails_[0], 0, padded);
  std::memcpy(tails_[0], preimage.data() + prefix, tail_len_);
  tails_[0][tail_len_] = 0x80;
  const uint64_t bit_count = static_cast<uint64_t>(preimage.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    tails_[0][padded - 8 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(bit_count >> (56 - 8 * i));
  }

  // Pre-pad the second-hash block: a 32-byte digest pads to exactly one
  // block with bit length 256 (0x100) in the trailing length field.
  std::memset(seconds_[0], 0, Sha256::kBlockSize);
  seconds_[0][32] = 0x80;
  seconds_[0][62] = 0x01;

  // Every lane starts from the same images; only nonce holes and inner
  // digests diverge per attempt.
  for (size_t lane = 1; lane < Sha256::kMaxLanes; ++lane) {
    std::memcpy(tails_[lane], tails_[0], padded);
    std::memcpy(seconds_[lane], seconds_[0], Sha256::kBlockSize);
  }
}

void HeaderHasher::PatchNonce(uint8_t* tail, uint64_t nonce) const {
  uint8_t* hole = tail + (tail_len_ - 8);
  for (int i = 0; i < 8; ++i) {
    hole[i] = static_cast<uint8_t>(nonce >> (8 * i));  // Little-endian.
  }
}

Hash256 HeaderHasher::HashWithNonce(uint64_t nonce) {
  PatchNonce(tails_[0], nonce);
  std::array<uint32_t, 8> state = midstate_;
  for (size_t b = 0; b < tail_blocks_; ++b) {
    Sha256::Compress(state.data(), tails_[0] + b * Sha256::kBlockSize);
  }
  StateToDigest(state.data(), seconds_[0]);
  std::array<uint32_t, 8> outer = Sha256::kInitialState;
  Sha256::Compress(outer.data(), seconds_[0]);
  std::array<uint8_t, Sha256::kDigestSize> digest;
  StateToDigest(outer.data(), digest.data());
  return Hash256(digest);
}

void HeaderHasher::HashLanesWithNonces(const Lane* lanes, size_t n,
                                       Hash256* out) {
  assert(n <= Sha256::kMaxLanes);
  std::array<uint32_t, 8> states[Sha256::kMaxLanes];
  uint32_t* state_ptrs[Sha256::kMaxLanes] = {};
  const uint8_t* block_ptrs[Sha256::kMaxLanes] = {};
  // Each lane patches ITS OWN hasher's lane-`i` tail image, so one hasher
  // occupying several lanes (consecutive nonces of one miner) never
  // clobbers itself: distinct lanes are distinct buffers.
  const size_t tail_blocks = n > 0 ? lanes[0].hasher->tail_blocks_ : 0;
  for (size_t i = 0; i < n; ++i) {
    HeaderHasher* hasher = lanes[i].hasher;
    assert(hasher->tail_blocks_ == tail_blocks);
    hasher->PatchNonce(hasher->tails_[i], lanes[i].nonce);
    states[i] = hasher->midstate_;
    state_ptrs[i] = states[i].data();
  }
  for (size_t b = 0; b < tail_blocks; ++b) {
    for (size_t i = 0; i < n; ++i) {
      block_ptrs[i] = lanes[i].hasher->tails_[i] + b * Sha256::kBlockSize;
    }
    Sha256::CompressBatch(state_ptrs, block_ptrs, n);
  }
  for (size_t i = 0; i < n; ++i) {
    StateToDigest(states[i].data(), lanes[i].hasher->seconds_[i]);
    states[i] = Sha256::kInitialState;
    block_ptrs[i] = lanes[i].hasher->seconds_[i];
  }
  Sha256::CompressBatch(state_ptrs, block_ptrs, n);
  std::array<uint8_t, Sha256::kDigestSize> digest;
  for (size_t i = 0; i < n; ++i) {
    StateToDigest(states[i].data(), digest.data());
    out[i] = Hash256(digest);
  }
}

}  // namespace ac3::crypto
