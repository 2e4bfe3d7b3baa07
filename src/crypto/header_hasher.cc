#include "src/crypto/header_hasher.h"

#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace ac3::crypto {

HeaderHasher::HeaderHasher(std::span<const uint8_t> preimage) {
  if (preimage.empty() || preimage.size() % Sha256::kBlockSize != 0) {
    throw std::invalid_argument(
        "HeaderHasher preimage is not a whole number of 64-byte blocks");
  }
  // Absorb every block before the last, which ends in the nonce.
  const size_t prefix = preimage.size() - Sha256::kBlockSize;
  std::array<uint32_t, 8> midstate = Sha256::kInitialState;
  for (size_t offset = 0; offset < prefix; offset += Sha256::kBlockSize) {
    Sha256::Compress(midstate.data(), preimage.data() + offset);
  }
  // The nonce block, then its padding block: 0x80, zeros, and the 64-bit
  // big-endian message bit length.
  uint8_t tail[2 * Sha256::kBlockSize] = {};
  std::memcpy(tail, preimage.data() + prefix, Sha256::kBlockSize);
  tail[Sha256::kBlockSize] = 0x80;
  const uint64_t bit_count = static_cast<uint64_t>(preimage.size()) * 8;
  for (size_t i = 0; i < 8; ++i) {
    tail[sizeof(tail) - 8 + i] =
        static_cast<uint8_t>(bit_count >> (56 - 8 * i));
  }
  Sha256::PrepareNonceScan(midstate.data(), tail, &job_);
}

Hash256 HeaderHasher::HashWithNonce(uint64_t nonce) const {
  uint32_t state[8] = {};
  Sha256::HashNonce(job_, nonce, state);
  // Whole big-endian words: byte-wise stores of each word are what
  // compilers turn into long shuffle sequences.
  std::array<uint8_t, Sha256::kDigestSize> digest;
  for (size_t i = 0; i < 8; ++i) {
    uint32_t word = state[i];
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap32(word);
    }
    std::memcpy(digest.data() + 4 * i, &word, 4);
  }
  return Hash256(digest);
}

HeaderHasher::Scan HeaderHasher::ScanNonces(uint64_t start,
                                            uint32_t prefix_mask) const {
  return Scan{Sha256::ScanNonces(job_, start, prefix_mask),
              static_cast<uint32_t>(Sha256::NonceScanLanes())};
}

}  // namespace ac3::crypto
