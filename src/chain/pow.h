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

/// True when `hash` has >= `difficulty_bits` leading zero bits.
bool HashMeetsDifficulty(const crypto::Hash256& hash, uint32_t difficulty_bits);

/// True when the header's own hash meets its declared difficulty.
bool CheckProofOfWork(const BlockHeader& header);

/// Searches nonces (starting from a random offset drawn from `rng`, in
/// ascending order) until the header meets its difficulty; mutates
/// `header->nonce`. Returns the number of nonces visited up to and
/// including the winner — a deterministic function of the seed, pinned by
/// the committed BENCH witnesses.
///
/// Exactly MineHeaderBatch({header}, rng)[0]: the one header fills every
/// Sha256::PreferredMiningLanes() lane with consecutive nonces (two on the
/// scalar/SHA-NI dispatch levels, eight on AVX2), overlapping the
/// independent SHA-256 dependency chains. Lanes are checked in ascending
/// nonce order, so the winning nonce and the returned count are identical
/// to MineHeaderScalar on every dispatch level — only the wall-clock per
/// nonce changes.
uint64_t MineHeader(BlockHeader* header, Rng* rng);

/// The one-nonce-at-a-time reference search. Kept as the equivalence
/// oracle for MineHeader (tests assert identical winning nonces and eval
/// counts across a seed/difficulty grid); not used on the hot path.
uint64_t MineHeaderScalar(BlockHeader* header, Rng* rng);

/// Mines every header in `headers` — multi-miner contention in one batch.
/// Returns the per-header eval counts, index-aligned with `headers`.
///
/// Semantically identical to calling MineHeader(headers[i], rng) in index
/// order: each header's start nonce is drawn from `rng` in that order
/// (one NextU64 per header), each header's nonces are visited ascending
/// from its start, and eval counts are "nonces visited up to and
/// including the winner" — so winning nonces and counts
/// match the per-header loop (and hence MineHeaderScalar) on every
/// SHA-256 dispatch level. The difference is occupancy: every loop
/// iteration fills all Sha256::PreferredMiningLanes() lanes with attempts
/// spread across the still-unsolved headers (HeaderHasher's cross-hasher
/// HashLanesWithNonces), so the AVX2 8-way rung runs full even when each
/// miner's difficulty is low — the realistic many-miners-low-difficulty
/// regime, where one search per miner would run short, underfilled
/// batches.
std::vector<uint64_t> MineHeaderBatch(std::span<BlockHeader* const> headers,
                                      Rng* rng);

/// Expected work contributed by one block of the given difficulty
/// (2^difficulty_bits hash evaluations). Used by the longest-chain rule.
double WorkForDifficulty(uint32_t difficulty_bits);

}  // namespace ac3::chain

#endif  // AC3_CHAIN_POW_H_
