#include "src/chain/pow.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/crypto/header_hasher.h"

namespace ac3::chain {

bool HashMeetsDifficulty(const crypto::Hash256& hash,
                         uint32_t difficulty_bits) {
  uint32_t zeros = 0;
  for (const uint8_t byte : hash.data()) {
    if (byte != 0) {
      zeros += static_cast<uint32_t>(std::countl_zero(byte));
      break;
    }
    zeros += 8;
  }
  return zeros >= difficulty_bits;
}

bool CheckProofOfWork(const BlockHeader& header) {
  return HashMeetsDifficulty(header.Hash(), header.difficulty_bits);
}

uint64_t MineHeader(BlockHeader* header, Rng* rng) {
  uint8_t preimage[BlockHeader::kEncodedSize] = {};
  EncodeInto(preimage, *header);
  crypto::HeaderHasher hasher(preimage);
  const uint64_t start = rng->NextU64();
  const uint32_t bits = header->difficulty_bits;
  // The scan pre-filters on the digest's first 32 bits: every nonce that
  // meets the difficulty has the top min(bits, 32) of them clear.
  const uint32_t prefix_bits = std::min<uint32_t>(bits, 32);
  const uint32_t prefix_mask =
      prefix_bits == 0 ? 0 : ~uint32_t{0} << (32 - prefix_bits);
  for (uint64_t base = start;;) {
    const crypto::HeaderHasher::Scan scan =
        hasher.ScanNonces(base, prefix_mask);
    for (uint32_t candidates = scan.candidates; candidates != 0;
         candidates &= candidates - 1) {
      const uint64_t nonce =
          base + static_cast<uint64_t>(std::countr_zero(candidates));
      if (HashMeetsDifficulty(hasher.HashWithNonce(nonce), bits)) {
        header->nonce = nonce;
        return nonce - start + 1;
      }
    }
    base += scan.lanes;
  }
}

std::vector<uint64_t> MineHeaderBatch(std::span<BlockHeader* const> headers,
                                      Rng* rng) {
  std::vector<uint64_t> evals;
  evals.reserve(headers.size());
  for (BlockHeader* header : headers) evals.push_back(MineHeader(header, rng));
  return evals;
}

double WorkForDifficulty(uint32_t difficulty_bits) {
  return std::pow(2.0, static_cast<double>(difficulty_bits));
}

}  // namespace ac3::chain
