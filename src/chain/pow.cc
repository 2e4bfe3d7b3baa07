#include "src/chain/pow.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <deque>

#include "src/common/worker_pool.h"
#include "src/crypto/header_hasher.h"

namespace ac3::chain {

namespace {

/// Nonces in one chunk of a search: whole ScanNonces calls on every
/// dispatch level (16, 8 or 1 lanes), and the unit MineHeaderBatch hands
/// out to its searchers.
constexpr uint64_t kChunkNonces = 512;
static_assert(kChunkNonces % 16 == 0);

/// `best` of a search that has found no winner yet.
constexpr uint64_t kNoWinner = ~uint64_t{0};

crypto::HeaderHasher HasherFor(const BlockHeader& header) {
  uint8_t preimage[BlockHeader::kEncodedSize] = {};
  EncodeInto(preimage, header);
  return crypto::HeaderHasher(preimage);
}

/// One header's search: nonces start, start + 1, ..., visited as offsets
/// from `start`, and the lowest winning offset found so far.
struct HeaderSearch {
  HeaderSearch(const BlockHeader& header, uint64_t start_nonce)
      : hasher(HasherFor(header)),
        start(start_nonce),
        bits(header.difficulty_bits) {}

  const crypto::HeaderHasher hasher;
  const uint64_t start;
  const uint32_t bits;
  /// The scan pre-filters on the digest's first 32 bits: every nonce that
  /// meets the difficulty has the top min(bits, 32) of them clear.
  const uint32_t prefix_mask =
      bits == 0 ? 0 : ~uint32_t{0} << (32 - std::min<uint32_t>(bits, 32));
  std::atomic<uint64_t> best{kNoWinner};

  /// Writes the winning nonce into `header` and returns the nonces a
  /// serial search visits: offsets 0 through the winner.
  uint64_t Settle(BlockHeader* header) const {
    const uint64_t offset = best.load(std::memory_order_relaxed);
    header->nonce = start + offset;
    return offset + 1;
  }
};

/// Scans offsets [first, first + kChunkNonces) of `search` in ascending
/// order, confirming each step's candidates in ascending order, and lowers
/// `search->best` to the chunk's first winner. Leaves the chunk as soon as
/// `best` is below `first`: no offset in it can win any more. Returns true
/// when this chunk gave the search its first winner.
bool ScanChunk(HeaderSearch* search, uint64_t first) {
  for (uint64_t offset = first; offset < first + kChunkNonces;) {
    if (search->best.load(std::memory_order_relaxed) < first) return false;
    const uint64_t base = search->start + offset;
    const crypto::HeaderHasher::Scan scan =
        search->hasher.ScanNonces(base, search->prefix_mask);
    for (uint32_t candidates = scan.candidates; candidates != 0;
         candidates &= candidates - 1) {
      const uint64_t lane = static_cast<uint64_t>(std::countr_zero(candidates));
      if (!HashMeetsDifficulty(search->hasher.HashWithNonce(base + lane),
                               search->bits)) {
        continue;
      }
      const uint64_t won = offset + lane;
      uint64_t best = search->best.load(std::memory_order_relaxed);
      while (won < best && !search->best.compare_exchange_weak(
                               best, won, std::memory_order_relaxed)) {
      }
      return best == kNoWinner;
    }
    offset += scan.lanes;
  }
  return false;
}

}  // namespace

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

Status CheckHeaderLink(const BlockHeader& header, const BlockHeader& parent,
                       const crypto::Hash256& parent_hash,
                       uint32_t difficulty_bits) {
  if (header.chain_id != parent.chain_id) {
    return Status::VerificationFailed("header belongs to another chain");
  }
  if (header.prev_hash != parent_hash) {
    return Status::VerificationFailed("header does not link to its parent");
  }
  if (header.height != parent.height + 1) {
    return Status::VerificationFailed("header height does not extend parent");
  }
  if (header.difficulty_bits != difficulty_bits) {
    return Status::VerificationFailed("header declares the wrong difficulty");
  }
  if (!CheckProofOfWork(header)) {
    return Status::VerificationFailed("header fails proof of work");
  }
  return Status::OK();
}

uint64_t MineHeader(BlockHeader* header, Rng* rng) {
  HeaderSearch search(*header, rng->NextU64());
  for (uint64_t first = 0; !ScanChunk(&search, first); first += kChunkNonces) {
  }
  return search.Settle(header);
}

std::vector<uint64_t> MineHeaderBatch(std::span<BlockHeader* const> headers,
                                      Rng* rng) {
  const size_t n = headers.size();
  std::deque<HeaderSearch> searches;  // Holds atomics: never moved.
  for (BlockHeader* header : headers) {
    searches.emplace_back(*header, rng->NextU64());
  }
  // Chunk k is header k % n's chunk k / n, so every header's chunks are
  // claimed in ascending order, and any chunk below a header's winner was
  // claimed before the winner's chunk and never left early.
  std::atomic<uint64_t> cursor{0};
  std::atomic<size_t> open{n};  // Headers with no winner yet.
  const auto search = [&](size_t) {
    while (open.load(std::memory_order_relaxed) > 0) {
      const uint64_t k = cursor.fetch_add(1, std::memory_order_relaxed);
      if (ScanChunk(&searches[k % n], k / n * kChunkNonces)) {
        open.fetch_sub(1, std::memory_order_relaxed);
      }
    }
  };
  common::WorkerPool& pool = common::WorkerPool::ForThisThread();
  pool.ParallelFor(std::min(static_cast<size_t>(pool.threads()), n), search);
  std::vector<uint64_t> evals;
  evals.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    evals.push_back(searches[i].Settle(headers[i]));
  }
  return evals;
}

double WorkForDifficulty(uint32_t difficulty_bits) {
  return std::pow(2.0, static_cast<double>(difficulty_bits));
}

}  // namespace ac3::chain
