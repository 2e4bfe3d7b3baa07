#include "src/chain/pow.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/crypto/header_hasher.h"

namespace ac3::chain {

bool HashMeetsDifficulty(const crypto::Hash256& hash,
                         uint32_t difficulty_bits) {
  assert(difficulty_bits < 64);
  if (difficulty_bits == 0) return true;
  return (hash.Prefix64() >> (64 - difficulty_bits)) == 0;
}

bool CheckProofOfWork(const BlockHeader& header) {
  return HashMeetsDifficulty(header.Hash(), header.difficulty_bits);
}

uint64_t MineHeader(BlockHeader* header, Rng* rng) {
  BlockHeader* const one[] = {header};
  return MineHeaderBatch(one, rng)[0];
}

std::vector<uint64_t> MineHeaderBatch(std::span<BlockHeader* const> headers,
                                      Rng* rng) {
  const size_t n = headers.size();
  std::vector<uint64_t> evals(n, 0);
  if (n == 0) return evals;

  struct Miner {
    size_t index;  ///< Position in `headers` / `evals`.
    crypto::HeaderHasher hasher;
    uint64_t next_nonce;
    bool done = false;
  };
  std::vector<Miner> active;
  active.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    uint8_t preimage[BlockHeader::kEncodedSize];
    headers[i]->EncodeTo(preimage);
    // One NextU64 per header, in index order — exactly the draw sequence
    // of sequential MineHeader calls on a shared rng, which is what keeps
    // the committed eval-count goldens identical between the two paths.
    active.push_back(Miner{i, crypto::HeaderHasher(preimage), rng->NextU64()});
  }

  const size_t lanes = crypto::Sha256::PreferredMiningLanes();
  crypto::HeaderHasher::Lane plan[crypto::Sha256::kMaxLanes];
  size_t plan_miner[crypto::Sha256::kMaxLanes];
  crypto::Hash256 hashes[crypto::Sha256::kMaxLanes];

  while (!active.empty()) {
    // One pass over the unsolved miners in chunks of at most `lanes`
    // miners. Within a chunk, all `lanes` lanes are filled — split as
    // evenly as possible, earlier miners taking the remainder — and each
    // miner's lanes carry consecutive ascending nonces from its cursor,
    // so every miner's visit order is the same ascending sequence the
    // per-miner loop walks; only the chunking (pure wall-clock shape)
    // differs, and eval counts count visited nonces, not iterations.
    for (size_t base = 0; base < active.size(); ) {
      const size_t chunk = std::min(active.size() - base, lanes);
      const size_t per = lanes / chunk;
      const size_t extra = lanes % chunk;
      size_t used = 0;
      for (size_t m = 0; m < chunk; ++m) {
        Miner& miner = active[base + m];
        const size_t count = per + (m < extra ? 1 : 0);
        for (size_t k = 0; k < count; ++k) {
          plan[used] = crypto::HeaderHasher::Lane{&miner.hasher,
                                                  miner.next_nonce + k};
          plan_miner[used] = base + m;
          ++used;
        }
      }
      crypto::HeaderHasher::HashLanesWithNonces(plan, used, hashes);
      // Check each miner's lanes in ascending nonce order (the plan is
      // grouped per miner, ascending): the first meeting hash is that
      // miner's winning nonce, with later lanes of a winner the only
      // wasted work.
      for (size_t i = 0; i < used; ) {
        Miner& miner = active[plan_miner[i]];
        size_t count = 1;
        while (i + count < used && plan_miner[i + count] == plan_miner[i]) {
          ++count;
        }
        const uint32_t bits = headers[miner.index]->difficulty_bits;
        for (size_t k = 0; k < count; ++k) {
          if (HashMeetsDifficulty(hashes[i + k], bits)) {
            headers[miner.index]->nonce = plan[i + k].nonce;
            evals[miner.index] += k + 1;
            miner.done = true;
            break;
          }
        }
        if (!miner.done) {
          evals[miner.index] += count;
          miner.next_nonce += count;
        }
        i += count;
      }
      base += chunk;
    }
    active.erase(std::remove_if(active.begin(), active.end(),
                                [](const Miner& m) { return m.done; }),
                 active.end());
  }
  return evals;
}

uint64_t MineHeaderScalar(BlockHeader* header, Rng* rng) {
  uint8_t preimage[BlockHeader::kEncodedSize];
  header->EncodeTo(preimage);
  crypto::HeaderHasher hasher(preimage);
  uint64_t nonce = rng->NextU64();
  uint64_t evaluations = 0;
  for (;;) {
    ++evaluations;
    if (HashMeetsDifficulty(hasher.HashWithNonce(nonce),
                            header->difficulty_bits)) {
      header->nonce = nonce;
      return evaluations;
    }
    ++nonce;
  }
}

double WorkForDifficulty(uint32_t difficulty_bits) {
  return std::pow(2.0, static_cast<double>(difficulty_bits));
}

}  // namespace ac3::chain
