// Proof of work: mining and verification.
//
// A header satisfies PoW when its double-SHA-256 hash has at least
// `difficulty_bits` leading zero bits. Difficulty is fixed per chain (no
// retargeting — the simulator schedules block arrival times explicitly, so
// PoW here provides the *verifiability* that Section 4.3's evidence checks
// need, not the timing).

#ifndef AC3_CHAIN_POW_H_
#define AC3_CHAIN_POW_H_

#include <span>
#include <vector>

#include "src/chain/block.h"
#include "src/common/random.h"
#include "src/common/status.h"

namespace ac3::chain {

/// True when `hash` has >= `difficulty_bits` leading zero bits, counted
/// over the whole 32-byte digest. Defined for every value: a difficulty
/// above 256 is never met.
bool HashMeetsDifficulty(const crypto::Hash256& hash, uint32_t difficulty_bits);

/// True when the header's own hash meets its declared difficulty.
bool CheckProofOfWork(const BlockHeader& header);

/// Searches nonces (starting from a random offset drawn from `rng`, in
/// ascending order) until the header meets its difficulty; mutates
/// `header->nonce`. Returns the number of nonces visited up to and
/// including the winner — a deterministic function of the seed, pinned by
/// the committed BENCH witnesses. Runs on the calling thread.
///
/// The search visits 512-nonce chunks in order. Each step is one
/// HeaderHasher::ScanNonces call: on the avx512 and avx2 dispatch levels a
/// fused 16- or 8-lane double-SHA-256 of consecutive nonces, on the scalar
/// and shani levels a single nonce, returning the nonces whose digest
/// passes a pre-filter on its first 32 bits. The candidates are confirmed
/// in ascending nonce order with HashMeetsDifficulty(HashWithNonce(nonce)),
/// so the winning nonce and the returned count are identical to a
/// one-nonce-at-a-time search on every dispatch level
/// (testutil::MineHeaderScalar, the tests' oracle) — only the wall-clock
/// per nonce changes.
uint64_t MineHeader(BlockHeader* header, Rng* rng);

/// Mines every header in `headers` — multi-miner contention in one call.
/// Returns the per-header eval counts, index-aligned with `headers`, and
/// sets the same nonces as MineHeader(headers[i], rng) called in index
/// order: each header's start nonce is the i-th draw from `rng`.
///
/// The search runs across the cores: the headers' chunks go round-robin
/// to min(threads, headers.size()) searchers on the calling thread's
/// common::WorkerPool (WorkerPool::ForThisThread: one thread per core,
/// spawned on its first parallel round, shared with the block checks), and
/// each header keeps its lowest winning offset, so the results do not
/// depend on the width or the schedule. A one-header batch runs on the
/// caller, and so does a batch started inside a pool round's task, such as
/// a SweepRunner world: its searchers run one after another on that
/// thread, with the same nonces and eval counts.
std::vector<uint64_t> MineHeaderBatch(std::span<BlockHeader* const> headers,
                                      Rng* rng);

/// Expected work contributed by one block of the given difficulty
/// (2^difficulty_bits hash evaluations). Used by the longest-chain rule.
double WorkForDifficulty(uint32_t difficulty_bits);

}  // namespace ac3::chain

#endif  // AC3_CHAIN_POW_H_
