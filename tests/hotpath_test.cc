// Unit tests for the engine hot-path machinery introduced by the perf
// overhaul: the midstate PoW hasher, the persistent (copy-on-write)
// ledger maps, skip-pointer ancestry / branch membership, the incremental
// visible-head tracker, and the indexed mempool. Each test checks the fast
// path against the straightforward reference computation.

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/chain/blockchain.h"
#include "src/chain/mempool.h"
#include "src/chain/pow.h"
#include "src/chain/wallet.h"
#include "src/common/persistent_map.h"
#include "src/common/random.h"
#include "src/common/worker_pool.h"
#include "src/core/environment.h"
#include "src/crypto/header_hasher.h"
#include "tests/dispatch_test_util.h"
#include "tests/test_util.h"

namespace ac3 {
namespace {

// ---- HeaderHasher ----------------------------------------------------------

chain::BlockHeader RandomHeader(Rng* rng) {
  chain::BlockHeader header;
  header.chain_id = static_cast<chain::ChainId>(rng->NextU64());
  header.height = rng->NextU64() % 100000;
  header.time = static_cast<TimePoint>(rng->NextU64() % 1000000);
  header.difficulty_bits = static_cast<uint32_t>(rng->NextU64() % 20);
  Bytes seed;
  for (int i = 0; i < 32; ++i) {
    seed.push_back(static_cast<uint8_t>(rng->NextU64()));
  }
  header.prev_hash = crypto::Hash256::Of(seed);
  seed.push_back(1);
  header.tx_root = crypto::Hash256::Of(seed);
  seed.push_back(2);
  header.receipt_root = crypto::Hash256::Of(seed);
  return header;
}

// On every level, the per-header job path (Sha256::HashNonce) equals
// hashing the re-encoded header.
TEST(HeaderHasherTest, MidstateMatchesNaiveDoubleHash) {
  testutil::DispatchGuard guard;
  Rng rng(314);
  for (crypto::Sha256::Dispatch level : testutil::AvailableDispatches()) {
    ASSERT_TRUE(crypto::Sha256::SetDispatch(level));
    for (int trial = 0; trial < 8; ++trial) {
      chain::BlockHeader header = RandomHeader(&rng);
      uint8_t preimage[chain::BlockHeader::kEncodedSize];
      EncodeInto(preimage, header);
      crypto::HeaderHasher hasher(preimage);
      for (int n = 0; n < 16; ++n) {
        const uint64_t nonce = rng.NextU64();
        header.nonce = nonce;
        EXPECT_EQ(hasher.HashWithNonce(nonce),
                  crypto::Hash256::DoubleOf(Encode(header)))
            << "level " << crypto::Sha256::DispatchName(level) << " trial "
            << trial << " nonce " << nonce;
        EXPECT_EQ(hasher.HashWithNonce(nonce), header.Hash());
      }
    }
  }
}

// Any whole number of blocks: the nonce always ends the last one.
TEST(HeaderHasherTest, SupportsEveryWholeBlockPreimageLength) {
  Rng rng(2718);
  for (size_t len : {64u, 128u, 192u, 256u}) {
    Bytes preimage;
    for (size_t i = 0; i < len; ++i) {
      preimage.push_back(static_cast<uint8_t>(rng.NextU64()));
    }
    const crypto::HeaderHasher hasher(preimage);
    const uint64_t nonce = rng.NextU64();
    Bytes patched = preimage;
    for (int i = 0; i < 8; ++i) {
      patched[len - 8 + static_cast<size_t>(i)] =
          static_cast<uint8_t>(nonce >> (8 * i));
    }
    EXPECT_EQ(hasher.HashWithNonce(nonce), crypto::Hash256::DoubleOf(patched))
        << "preimage length " << len;
  }
}

TEST(HeaderHasherTest, RejectsPreimagesThatAreNotWholeBlocks) {
  for (size_t len : {0u, 8u, 63u, 65u, 100u, 129u}) {
    const Bytes preimage(len, 0x5a);
    EXPECT_THROW(crypto::HeaderHasher{preimage}, std::invalid_argument)
        << "preimage length " << len;
  }
}

TEST(MineHeaderTest, ProducesValidPowFromMidstate) {
  Rng rng(55);
  chain::BlockHeader header = RandomHeader(&rng);
  header.difficulty_bits = 8;
  const uint64_t evals = chain::MineHeader(&header, &rng);
  EXPECT_GE(evals, 1u);
  EXPECT_TRUE(chain::CheckProofOfWork(header));
}

using ::ac3::testutil::AvailableDispatches;
using ::ac3::testutil::DispatchGuard;

// Reads lane by lane the first digest word of the fused scan from
// `start`: bit j of lane i's word is clear exactly when the single-bit
// mask 1 << j marks lane i a candidate.
std::vector<uint32_t> ScannedFirstWords(const crypto::HeaderHasher& hasher,
                                        uint64_t start, uint32_t lanes) {
  std::vector<uint32_t> words(lanes, 0);
  for (int bit = 0; bit < 32; ++bit) {
    const crypto::HeaderHasher::Scan scan =
        hasher.ScanNonces(start, uint32_t{1} << bit);
    EXPECT_EQ(scan.lanes, lanes);
    for (uint32_t lane = 0; lane < lanes; ++lane) {
      if (((scan.candidates >> lane) & 1) == 0) {
        words[lane] |= uint32_t{1} << bit;
      }
    }
  }
  return words;
}

uint32_t FirstWord(const crypto::Hash256& hash) {
  const uint8_t* b = hash.bytes();
  return uint32_t{b[0]} << 24 | uint32_t{b[1]} << 16 | uint32_t{b[2]} << 8 |
         uint32_t{b[3]};
}

// Every lane of the scan hashes its own nonce: the first digest word of
// lane i equals HashWithNonce(start + i)'s, on every level, including
// starts 2^32 - k (lanes k.. carry into the high nonce word) and 2^64 - k
// (lanes k.. wrap to nonce 0, 1, ...).
TEST(HeaderHasherTest, ScanLanesMatchHashWithNonceAcrossCarryAndWrap) {
  DispatchGuard guard;
  Rng rng(887766);
  for (crypto::Sha256::Dispatch level : AvailableDispatches()) {
    ASSERT_TRUE(crypto::Sha256::SetDispatch(level));
    uint8_t preimage[chain::BlockHeader::kEncodedSize];
    EncodeInto(preimage, RandomHeader(&rng));
    crypto::HeaderHasher hasher(preimage);
    const uint32_t lanes =
        static_cast<uint32_t>(crypto::Sha256::NonceScanLanes());
    std::vector<uint64_t> starts = {rng.NextU64(), 0, uint64_t{1} << 32};
    for (uint64_t k = 1; k < lanes; ++k) {
      starts.push_back((uint64_t{1} << 32) - k);
      starts.push_back(uint64_t{0} - k);
    }
    for (const uint64_t start : starts) {
      const std::vector<uint32_t> words =
          ScannedFirstWords(hasher, start, lanes);
      for (uint32_t lane = 0; lane < lanes; ++lane) {
        EXPECT_EQ(words[lane], FirstWord(hasher.HashWithNonce(start + lane)))
            << "level " << crypto::Sha256::DispatchName(level) << " start "
            << start << " lane " << lane;
      }
    }
  }
}

// MineHeader and MineHeaderBatch against the scalar oracle on every level,
// at every difficulty 0..16: the same winning nonce, eval count and header
// hash, whichever lane of which scan the winner lands in.
TEST(MineHeaderTest, ScanMatchesScalarOracleAtDifficultiesUpTo16) {
  DispatchGuard guard;
  for (crypto::Sha256::Dispatch level : AvailableDispatches()) {
    ASSERT_TRUE(crypto::Sha256::SetDispatch(level));
    Rng header_rng(4242);
    std::vector<chain::BlockHeader> oracle;
    for (uint32_t bits = 0; bits <= 16; ++bits) {
      chain::BlockHeader header = RandomHeader(&header_rng);
      header.difficulty_bits = bits;
      oracle.push_back(header);
    }
    std::vector<chain::BlockHeader> mined = oracle;
    std::vector<chain::BlockHeader> batched = oracle;
    Rng oracle_rng(77);
    Rng mine_rng(77);
    Rng batch_rng(77);
    std::vector<chain::BlockHeader*> pointers;
    for (chain::BlockHeader& header : batched) pointers.push_back(&header);
    std::vector<uint64_t> oracle_evals;
    std::vector<uint64_t> mine_evals;
    for (size_t i = 0; i < oracle.size(); ++i) {
      oracle_evals.push_back(
          testutil::MineHeaderScalar(&oracle[i], &oracle_rng));
      mine_evals.push_back(chain::MineHeader(&mined[i], &mine_rng));
    }
    const std::vector<uint64_t> batch_evals = chain::MineHeaderBatch(
        std::span<chain::BlockHeader* const>(pointers), &batch_rng);
    ASSERT_EQ(batch_evals.size(), oracle.size());
    for (size_t i = 0; i < oracle.size(); ++i) {
      const std::string where = std::string("level ") +
                                crypto::Sha256::DispatchName(level) +
                                " bits " + std::to_string(i);
      EXPECT_EQ(mined[i].nonce, oracle[i].nonce) << where;
      EXPECT_EQ(batched[i].nonce, oracle[i].nonce) << where;
      EXPECT_EQ(mine_evals[i], oracle_evals[i]) << where;
      EXPECT_EQ(batch_evals[i], oracle_evals[i]) << where;
      EXPECT_EQ(mined[i].Hash(), oracle[i].Hash()) << where;
      EXPECT_EQ(batched[i].Hash(), oracle[i].Hash()) << where;
      EXPECT_TRUE(chain::CheckProofOfWork(mined[i])) << where;
    }
  }
}

// The scanning search must be observationally identical to the scalar
// oracle on EVERY dispatch level: same ascending visit order from the
// same random start, so the same winning nonce and the same
// visited-nonce count, at every lane offset the winner can land on
// (bits 0..11 sweep winners across all 8 AVX2 and 16 AVX-512 lanes).
TEST(MineHeaderTest, InterleavedVisitsSameNoncesAsScalar) {
  DispatchGuard guard;
  for (crypto::Sha256::Dispatch level : AvailableDispatches()) {
    ASSERT_TRUE(crypto::Sha256::SetDispatch(level));
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      for (uint32_t bits : {0u, 1u, 4u, 8u, 11u}) {
        Rng scalar_rng(seed * 1000 + bits);
        Rng fast_rng(seed * 1000 + bits);
        chain::BlockHeader scalar_header = RandomHeader(&scalar_rng);
        chain::BlockHeader fast_header = RandomHeader(&fast_rng);
        scalar_header.difficulty_bits = bits;
        fast_header.difficulty_bits = bits;
        const uint64_t scalar_evals =
            testutil::MineHeaderScalar(&scalar_header, &scalar_rng);
        const uint64_t fast_evals = chain::MineHeader(&fast_header, &fast_rng);
        EXPECT_EQ(fast_header.nonce, scalar_header.nonce)
            << "level " << crypto::Sha256::DispatchName(level) << " seed "
            << seed << " bits " << bits;
        EXPECT_EQ(fast_evals, scalar_evals)
            << "level " << crypto::Sha256::DispatchName(level) << " seed "
            << seed << " bits " << bits;
        EXPECT_TRUE(chain::CheckProofOfWork(fast_header));
      }
    }
  }
}

// Golden re-pin of the deterministic PoW witness, mirroring the bench's
// --smoke pow parameters (engine_hotpaths study, RunPow: 4 headers at 12
// bits from Rng seed 99; the committed full-run envelope pins the
// analogous 836367-eval witness at 16 bits). The scanning search
// reproduces the scalar count by construction on every dispatch level;
// running the oracle and the scan on each available level pins the value
// against the implementations drifting together.
TEST(MineHeaderTest, GoldenEvalCountMatchesBenchWitness) {
  constexpr uint64_t kGoldenEvals = 15254;  // 4 headers, 12 bits, seed 99.
  DispatchGuard guard;
  for (crypto::Sha256::Dispatch level : AvailableDispatches()) {
    ASSERT_TRUE(crypto::Sha256::SetDispatch(level));
    for (const bool interleaved : {false, true}) {
      Rng rng(99);
      uint64_t evals = 0;
      for (uint64_t i = 0; i < 4; ++i) {
        chain::BlockHeader header;
        header.chain_id = 1;
        header.height = i + 1;
        header.time = static_cast<TimePoint>(i * 100);
        header.difficulty_bits = 12;
        evals += interleaved ? chain::MineHeader(&header, &rng)
                             : testutil::MineHeaderScalar(&header, &rng);
      }
      EXPECT_EQ(evals, kGoldenEvals)
          << "level " << crypto::Sha256::DispatchName(level)
          << " interleaved=" << interleaved;
    }
  }
}

// The multi-miner batch search must be observationally identical to
// calling MineHeader(headers[i], rng) in index order: one rng draw per
// header, ascending visit order per miner, so the same winning nonces
// and the same per-header eval counts — on every dispatch level, at
// every batch width.
TEST(MineHeaderTest, BatchVisitsSameNoncesAsSequentialMineHeader) {
  DispatchGuard guard;
  for (crypto::Sha256::Dispatch level : AvailableDispatches()) {
    ASSERT_TRUE(crypto::Sha256::SetDispatch(level));
    for (size_t width : {1u, 2u, 3u, 5u, 8u, 16u}) {
      for (uint32_t bits : {0u, 4u, 9u}) {
        Rng seq_rng(width * 100 + bits);
        Rng batch_rng(width * 100 + bits);
        Rng header_rng(width * 7 + bits);
        std::vector<chain::BlockHeader> seq_headers;
        for (size_t i = 0; i < width; ++i) {
          chain::BlockHeader header = RandomHeader(&header_rng);
          header.difficulty_bits = bits;
          seq_headers.push_back(header);
        }
        std::vector<chain::BlockHeader> batch_headers = seq_headers;

        std::vector<uint64_t> seq_evals;
        for (chain::BlockHeader& header : seq_headers) {
          seq_evals.push_back(chain::MineHeader(&header, &seq_rng));
        }
        std::vector<chain::BlockHeader*> pointers;
        for (chain::BlockHeader& header : batch_headers) {
          pointers.push_back(&header);
        }
        const std::vector<uint64_t> batch_evals = chain::MineHeaderBatch(
            std::span<chain::BlockHeader* const>(pointers), &batch_rng);
        ASSERT_EQ(batch_evals.size(), width);
        for (size_t i = 0; i < width; ++i) {
          EXPECT_EQ(batch_headers[i].nonce, seq_headers[i].nonce)
              << "level " << crypto::Sha256::DispatchName(level) << " width "
              << width << " bits " << bits << " header " << i;
          EXPECT_EQ(batch_evals[i], seq_evals[i])
              << "level " << crypto::Sha256::DispatchName(level) << " width "
              << width << " bits " << bits << " header " << i;
          EXPECT_TRUE(chain::CheckProofOfWork(batch_headers[i]));
        }
      }
    }
  }
}

// The batch's searchers race: headers at mixed difficulties resolve at
// very different chunk counts (difficulty 0 in its first 512-nonce chunk,
// 16 bits after 2^16 / 512 = 128 on average), so winners land while other
// chunks of the same and other headers are in flight. Widths below, at
// and above the pool's thread count, each batch repeated, must all equal
// sequential MineHeader.
TEST(MineHeaderTest, BatchOfMixedDifficultiesMatchesSequential) {
  constexpr uint32_t kBits[] = {0, 1, 9, 12, 16};
  DispatchGuard guard;
  for (crypto::Sha256::Dispatch level : AvailableDispatches()) {
    ASSERT_TRUE(crypto::Sha256::SetDispatch(level));
    for (size_t width : {1u, 2u, 4u, 5u, 8u, 9u, 17u}) {
      Rng header_rng(width * 31 + 5);
      std::vector<chain::BlockHeader> seq_headers;
      for (size_t i = 0; i < width; ++i) {
        chain::BlockHeader header = RandomHeader(&header_rng);
        header.difficulty_bits = kBits[i % std::size(kBits)];
        seq_headers.push_back(header);
      }
      const std::vector<chain::BlockHeader> fresh = seq_headers;
      Rng seq_rng(width * 1009);
      std::vector<uint64_t> seq_evals;
      for (chain::BlockHeader& header : seq_headers) {
        seq_evals.push_back(chain::MineHeader(&header, &seq_rng));
      }
      for (int repeat = 0; repeat < 20; ++repeat) {
        std::vector<chain::BlockHeader> batch_headers = fresh;
        std::vector<chain::BlockHeader*> pointers;
        for (chain::BlockHeader& header : batch_headers) {
          pointers.push_back(&header);
        }
        Rng batch_rng(width * 1009);
        const std::vector<uint64_t> batch_evals = chain::MineHeaderBatch(
            std::span<chain::BlockHeader* const>(pointers), &batch_rng);
        ASSERT_EQ(batch_evals.size(), width);
        for (size_t i = 0; i < width; ++i) {
          const std::string where =
              std::string("level ") + crypto::Sha256::DispatchName(level) +
              " width " + std::to_string(width) + " repeat " +
              std::to_string(repeat) + " header " + std::to_string(i);
          ASSERT_EQ(batch_headers[i].nonce, seq_headers[i].nonce) << where;
          ASSERT_EQ(batch_evals[i], seq_evals[i]) << where;
        }
      }
    }
  }
}

// A sweep world runs on a pool thread, so its batch runs inline there
// (WorkerPool's nesting rule): four pool tasks each mine their own batch
// of mixed difficulties and must get the sequential nonces and evals.
TEST(MineHeaderTest, BatchInsideAPoolRoundMatchesSequential) {
  constexpr uint32_t kBits[] = {0, 4, 9, 12};
  constexpr size_t kTasks = 4;
  constexpr size_t kWidth = 6;
  std::vector<std::vector<chain::BlockHeader>> fresh(kTasks);
  std::vector<std::vector<chain::BlockHeader>> seq(kTasks);
  std::vector<std::vector<uint64_t>> seq_evals(kTasks);
  for (size_t task = 0; task < kTasks; ++task) {
    Rng header_rng(task * 53 + 1);
    for (size_t i = 0; i < kWidth; ++i) {
      chain::BlockHeader header = RandomHeader(&header_rng);
      header.difficulty_bits = kBits[i % std::size(kBits)];
      fresh[task].push_back(header);
    }
    seq[task] = fresh[task];
    Rng rng(task * 97 + 3);
    for (chain::BlockHeader& header : seq[task]) {
      seq_evals[task].push_back(chain::MineHeader(&header, &rng));
    }
  }
  std::vector<std::vector<chain::BlockHeader>> batch = fresh;
  std::vector<std::vector<uint64_t>> batch_evals(kTasks);
  common::WorkerPool pool(4);
  pool.ParallelFor(kTasks, [&](size_t task) {
    std::vector<chain::BlockHeader*> pointers;
    for (chain::BlockHeader& header : batch[task]) pointers.push_back(&header);
    Rng rng(task * 97 + 3);
    batch_evals[task] = chain::MineHeaderBatch(
        std::span<chain::BlockHeader* const>(pointers), &rng);
  });
  for (size_t task = 0; task < kTasks; ++task) {
    ASSERT_EQ(batch_evals[task].size(), kWidth) << "task " << task;
    for (size_t i = 0; i < kWidth; ++i) {
      EXPECT_EQ(batch[task][i].nonce, seq[task][i].nonce)
          << "task " << task << " header " << i;
      EXPECT_EQ(batch_evals[task][i], seq_evals[task][i])
          << "task " << task << " header " << i;
    }
  }
}

// The 15254-eval smoke witness (4 headers, 12 bits, Rng seed 99 — see
// GoldenEvalCountMatchesBenchWitness) reproduced through one batched
// multi-miner search instead of four sequential calls.
TEST(MineHeaderTest, GoldenEvalCountMatchesBenchWitnessViaBatch) {
  constexpr uint64_t kGoldenEvals = 15254;
  DispatchGuard guard;
  for (crypto::Sha256::Dispatch level : AvailableDispatches()) {
    ASSERT_TRUE(crypto::Sha256::SetDispatch(level));
    Rng rng(99);
    std::vector<chain::BlockHeader> headers(4);
    for (uint64_t i = 0; i < 4; ++i) {
      headers[i].chain_id = 1;
      headers[i].height = i + 1;
      headers[i].time = static_cast<TimePoint>(i * 100);
      headers[i].difficulty_bits = 12;
    }
    std::vector<chain::BlockHeader*> pointers;
    for (chain::BlockHeader& header : headers) pointers.push_back(&header);
    const std::vector<uint64_t> evals = chain::MineHeaderBatch(
        std::span<chain::BlockHeader* const>(pointers), &rng);
    uint64_t total = 0;
    for (const uint64_t e : evals) total += e;
    EXPECT_EQ(total, kGoldenEvals)
        << "level " << crypto::Sha256::DispatchName(level);
  }
}

// The committed full-run envelope (BENCH_engine_hotpaths.json
// results.pow.evaluations) pins 836367 evals for 16 headers at 16 bits
// from Rng seed 99; the batched search must land on the same witness.
// One dispatch level suffices (the sweep above covers cross-level
// identity); the active level is whatever the environment pinned.
TEST(MineHeaderTest, GoldenFullRunEvalCountMatchesEnvelopeViaBatch) {
  constexpr uint64_t kGoldenEvals = 836367;
  Rng rng(99);
  std::vector<chain::BlockHeader> headers(16);
  for (uint64_t i = 0; i < 16; ++i) {
    headers[i].chain_id = 1;
    headers[i].height = i + 1;
    headers[i].time = static_cast<TimePoint>(i * 100);
    headers[i].difficulty_bits = 16;
  }
  std::vector<chain::BlockHeader*> pointers;
  for (chain::BlockHeader& header : headers) pointers.push_back(&header);
  const std::vector<uint64_t> evals = chain::MineHeaderBatch(
      std::span<chain::BlockHeader* const>(pointers), &rng);
  uint64_t total = 0;
  for (const uint64_t e : evals) total += e;
  EXPECT_EQ(total, kGoldenEvals);
}

// ---- PersistentMap ---------------------------------------------------------

TEST(PersistentMapTest, MatchesStdMapUnderRandomOperations) {
  PersistentMap<uint64_t, uint64_t> fast;
  std::map<uint64_t, uint64_t> reference;
  Rng rng(161803);
  for (int op = 0; op < 4000; ++op) {
    const uint64_t key = rng.NextU64() % 257;  // Forces collisions/erases.
    const uint64_t value = rng.NextU64();
    switch (rng.NextU64() % 3) {
      case 0:
      case 1:  // Insert-heavy mix.
        fast.Put(key, value);
        reference[key] = value;
        break;
      case 2:
        EXPECT_EQ(fast.Erase(key), reference.erase(key) > 0);
        break;
    }
    ASSERT_EQ(fast.size(), reference.size());
  }
  // Lookups agree...
  for (uint64_t key = 0; key < 257; ++key) {
    auto it = reference.find(key);
    const uint64_t* found = fast.Find(key);
    ASSERT_EQ(found != nullptr, it != reference.end()) << key;
    if (found != nullptr) {
      EXPECT_EQ(*found, it->second);
    }
  }
  // ...and iteration is in identical (key) order.
  auto it = reference.begin();
  for (const auto& [key, value] : fast) {
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(key, it->first);
    EXPECT_EQ(value, it->second);
    ++it;
  }
  EXPECT_EQ(it, reference.end());
}

TEST(PersistentMapTest, SnapshotsAreIndependent) {
  PersistentMap<int, int> original;
  for (int i = 0; i < 100; ++i) original.Put(i, i * 10);

  PersistentMap<int, int> snapshot = original;  // O(1) copy.
  for (int i = 0; i < 100; i += 2) original.Erase(i);
  original.Put(1000, 1);

  // The snapshot still sees exactly the pre-mutation contents.
  EXPECT_EQ(snapshot.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    ASSERT_NE(snapshot.Find(i), nullptr) << i;
    EXPECT_EQ(*snapshot.Find(i), i * 10);
  }
  EXPECT_EQ(snapshot.Find(1000), nullptr);
  // And the mutated handle sees its own changes.
  EXPECT_EQ(original.size(), 51u);
  EXPECT_EQ(original.Find(2), nullptr);
  ASSERT_NE(original.Find(1000), nullptr);
}

TEST(PersistentMapTest, UniquePathsUpdateInPlace) {
  PersistentMap<int, int> map;
  for (int i = 0; i < 100; ++i) map.Put(i, i);

  // No snapshot shares the tree: replacing a value rewrites its node.
  const int* node_value = map.Find(42);
  map.Put(42, -1);
  EXPECT_EQ(map.Find(42), node_value);
  EXPECT_EQ(*map.Find(42), -1);

  // A snapshot shares every node: the same Put path-copies instead.
  const PersistentMap<int, int> snapshot = map;
  map.Put(42, -2);
  EXPECT_NE(map.Find(42), node_value);
  EXPECT_EQ(*map.Find(42), -2);
  EXPECT_EQ(snapshot.Find(42), node_value);
  EXPECT_EQ(*snapshot.Find(42), -1);
}

TEST(PersistentMapTest, InPlaceUpdatesNeverReachASnapshot) {
  // One handle churns through long runs of Put/Erase with snapshots taken
  // at sparse random points, so between snapshots it owns most of its
  // paths alone and updates them in place — splits, borrows and merges
  // included. Dropping a snapshot mid-run makes the nodes it shared
  // unique to the handle again. Every surviving snapshot must still hold
  // exactly what the handle held when it was taken.
  using Map = PersistentMap<uint64_t, uint64_t>;
  Map live;
  std::map<uint64_t, uint64_t> reference;
  std::vector<Map> snapshots;
  std::vector<std::map<uint64_t, uint64_t>> expected;
  Rng rng(31415);
  constexpr int kOps = 40000;
  bool dropped = false;
  for (int op = 0; op < kOps; ++op) {
    const uint64_t key = rng.NextU64() % 1024;
    if (rng.NextU64() % 3 == 0) {
      ASSERT_EQ(live.Erase(key), reference.erase(key) > 0);
    } else {
      const uint64_t value = rng.NextU64();
      live.Put(key, value);
      reference[key] = value;
    }
    if (rng.NextU64() % 2000 == 0) {
      snapshots.push_back(live);
      expected.push_back(reference);
    }
    if (!dropped && op >= kOps / 2 && snapshots.size() >= 2) {
      // Drop the newest snapshot: it shares the most with the handle.
      snapshots.pop_back();
      expected.pop_back();
      dropped = true;
    }
  }
  ASSERT_TRUE(dropped);
  ASSERT_GE(snapshots.size(), 8u);
  snapshots.push_back(live);
  expected.push_back(reference);
  for (size_t s = 0; s < snapshots.size(); ++s) {
    SCOPED_TRACE("snapshot " + std::to_string(s));
    ASSERT_EQ(snapshots[s].size(), expected[s].size());
    auto it = expected[s].begin();
    for (const auto& [key, value] : snapshots[s]) {
      ASSERT_EQ(key, it->first);
      ASSERT_EQ(value, it->second);
      ++it;
    }
  }
}

TEST(PersistentMapTest, EveryShapeMatchesStdMap) {
  // The map fills to 20k keys in ascending, descending and random order,
  // drains to empty in random order after each fill, then refills. 20k
  // keys need three inner levels over 8-entry leaves at 16 children, so
  // these runs split leaves and inner nodes, borrow from either sibling,
  // merge leaves and inner nodes, and collapse the root to a leaf and to
  // nothing. Snapshots taken at random points are checked against
  // std::map copies once the handle has moved on, at the end of each run.
  using Map = PersistentMap<uint64_t, uint64_t>;
  using Reference = std::map<uint64_t, uint64_t>;
  constexpr uint64_t kKeys = 20000;
  Rng rng(27182818);
  Map live;
  Reference reference;
  std::vector<Map> snapshots;
  std::vector<Reference> expected;

  // Keys are even, so every odd number is an absent key to probe.
  auto check = [](const Map& map, const Reference& want) {
    ASSERT_EQ(map.size(), want.size());
    ASSERT_EQ(map.empty(), want.empty());
    auto it = want.begin();
    for (const auto& [key, value] : map) {
      ASSERT_NE(it, want.end());
      ASSERT_EQ(key, it->first);
      ASSERT_EQ(value, it->second);
      ++it;
    }
    ASSERT_EQ(it, want.end());
    for (const auto& [key, value] : want) {
      const uint64_t* found = map.Find(key);
      ASSERT_NE(found, nullptr) << key;
      ASSERT_EQ(*found, value);
      ASSERT_EQ(map.at(key), value);
      ASSERT_EQ(map.Find(key + 1), nullptr) << key + 1;
    }
    EXPECT_THROW(map.at(2 * kKeys + 1), std::out_of_range);
    // A map built afresh from the same contents is equal; one value more
    // or one value changed is not.
    Map rebuilt;
    for (const auto& [key, value] : want) rebuilt.Put(key, value);
    ASSERT_TRUE(map == rebuilt);
    rebuilt.Put(2 * kKeys + 1, 0);
    ASSERT_FALSE(map == rebuilt);
    if (!want.empty()) {
      Map changed = map;
      changed.Put(want.begin()->first, want.begin()->second + 1);
      ASSERT_FALSE(map == changed);
    }
  };
  auto step = [&](uint64_t key, bool put) {
    if (put) {
      const uint64_t value = rng.NextU64();
      live.Put(key, value);
      reference[key] = value;
    } else {
      ASSERT_EQ(live.Erase(key), reference.erase(key) > 0) << key;
    }
    if (rng.NextU64() % 4000 == 0) {
      snapshots.push_back(live);
      expected.push_back(reference);
    }
  };
  auto finish_run = [&](const char* run) {
    SCOPED_TRACE(run);
    ASSERT_NO_FATAL_FAILURE(check(live, reference));
    for (size_t s = 0; s < snapshots.size(); ++s) {
      SCOPED_TRACE("snapshot " + std::to_string(s));
      ASSERT_NO_FATAL_FAILURE(check(snapshots[s], expected[s]));
    }
    snapshots.clear();
    expected.clear();
  };
  auto shuffled_keys = [&] {
    std::vector<uint64_t> keys(kKeys);
    for (uint64_t i = 0; i < kKeys; ++i) keys[i] = 2 * i;
    for (size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.NextBelow(i)]);
    }
    return keys;
  };
  auto drain = [&](const char* run) {
    for (const uint64_t key : shuffled_keys()) {
      ASSERT_NO_FATAL_FAILURE(step(key, /*put=*/false));
      if (rng.NextU64() % 8 == 0) {  // An absent key writes nothing.
        ASSERT_NO_FATAL_FAILURE(step(2 * (rng.NextU64() % kKeys) + 1, false));
      }
    }
    ASSERT_TRUE(live.empty());
    finish_run(run);
  };

  for (uint64_t i = 0; i < kKeys; ++i) step(2 * i, /*put=*/true);
  finish_run("ascending fill");
  drain("drain after the ascending fill");
  for (uint64_t i = kKeys; i-- > 0;) step(2 * i, /*put=*/true);
  finish_run("descending fill");
  drain("drain after the descending fill");
  for (const uint64_t key : shuffled_keys()) {
    ASSERT_NO_FATAL_FAILURE(step(key, /*put=*/true));
    if (rng.NextU64() % 8 == 0) {  // Replace a value already present.
      ASSERT_NO_FATAL_FAILURE(step(key, /*put=*/true));
    }
  }
  finish_run("random fill");
  drain("drain after the random fill");
  for (const uint64_t key : shuffled_keys()) {
    ASSERT_NO_FATAL_FAILURE(step(key, /*put=*/true));
  }
  finish_run("refill");
}

TEST(LedgerStateTest, CopyOnWriteSemantics) {
  testutil::TestChain tc(chain::TestChainParams(),
                         testutil::Fund({crypto::KeyPair::FromSeed(1)
                                             .public_key()},
                                        500));
  const chain::LedgerState& head_state = tc.chain().StateAtHead();
  chain::LedgerState copy = head_state;  // O(1) persistent snapshot.

  chain::Wallet wallet(crypto::KeyPair::FromSeed(1), tc.chain().id());
  auto tx = wallet.BuildTransfer(copy, crypto::KeyPair::FromSeed(2).public_key(),
                                 100, 1, 1);
  ASSERT_TRUE(tx.ok());
  chain::BlockEnv env{tc.chain().id(), 1, 100};
  ASSERT_TRUE(testutil::ApplyAndCommit(&copy, *tx, env).ok());

  // The head state is untouched by mutations of its copy.
  EXPECT_EQ(head_state.BalanceOf(crypto::KeyPair::FromSeed(1).public_key()),
            500u);
  EXPECT_EQ(copy.BalanceOf(crypto::KeyPair::FromSeed(1).public_key()), 399u);
  EXPECT_EQ(copy.BalanceOf(crypto::KeyPair::FromSeed(2).public_key()), 100u);
}

// ---- ancestry + branch membership ------------------------------------------

TEST(AncestryTest, GetAncestorMatchesParentWalk) {
  testutil::TestChain tc(chain::TestChainParams(), {});
  ASSERT_TRUE(tc.MineEmpty(64).ok());
  const chain::BlockEntry* head = tc.chain().head();
  for (uint64_t target = 0; target <= head->height(); ++target) {
    const chain::BlockEntry* slow = head;
    while (slow->height() > target) slow = slow->parent;
    EXPECT_EQ(tc.chain().GetAncestor(head, target), slow) << target;
  }
  EXPECT_EQ(tc.chain().GetAncestor(head, head->height() + 1), nullptr);
}

TEST(AncestryTest, TxOnBranchDistinguishesForks) {
  const crypto::KeyPair alice = crypto::KeyPair::FromSeed(1);
  testutil::TestChain tc(chain::TestChainParams(),
                         testutil::Fund({alice.public_key()}, 500));
  ASSERT_TRUE(tc.MineEmpty(3).ok());
  const crypto::Hash256 fork_point = tc.chain().head()->hash;

  // Branch A carries the transfer; branch B (same parent) does not.
  chain::Wallet wallet(alice, tc.chain().id());
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(),
                                 crypto::KeyPair::FromSeed(2).public_key(),
                                 50, 1, 1);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(tc.MineBlockOn(fork_point, {*tx}).ok());
  const chain::BlockEntry* tip_a = tc.chain().head();
  ASSERT_TRUE(tc.MineBlockOn(fork_point, {}).ok());
  const chain::BlockEntry* tip_b =
      tc.chain().head() == tip_a
          ? nullptr  // Ties keep the first-seen head; find B by walking.
          : tc.chain().head();
  if (tip_b == nullptr) {
    for (const chain::BlockEntry* entry : tc.chain().arrival_order()) {
      if (entry->height() == tip_a->height() && entry != tip_a) tip_b = entry;
    }
  }
  ASSERT_NE(tip_b, nullptr);

  EXPECT_TRUE(tc.chain().TxOnBranch(*tip_a, tx->Id()));
  EXPECT_FALSE(tc.chain().TxOnBranch(*tip_b, tx->Id()));
  // Genesis coinbase is on every branch; unknown ids on none.
  const crypto::Hash256 genesis_tx_id = tc.chain().genesis_tx().Id();
  EXPECT_TRUE(tc.chain().TxOnBranch(*tip_a, genesis_tx_id));
  EXPECT_TRUE(tc.chain().TxOnBranch(*tip_b, genesis_tx_id));
  EXPECT_FALSE(tc.chain().TxOnBranch(*tip_a, crypto::Hash256()));
}

// ---- incremental visible head ----------------------------------------------

TEST(VisibleHeadTest, IncrementalMatchesFullScan) {
  chain::ChainParams params = chain::TestChainParams();
  params.difficulty_bits = 4;
  params.block_interval = Milliseconds(60);  // Dense arrivals: many forks.
  core::Environment env(/*seed=*/99);
  chain::MiningConfig mining;
  mining.miner_count = 4;
  mining.max_propagation_delay = Milliseconds(80);
  const chain::ChainId id = env.AddChain(params, {}, mining);
  env.StartMining();
  const chain::Blockchain* chain = env.blockchain(id);
  ASSERT_TRUE(env.sim()
                  ->RunUntilCondition([&]() { return chain->height() >= 80; },
                                      Hours(1))
                  .ok());
  env.StopMining();
  chain::MiningNetwork* miners = env.miners(id);
  ASSERT_GT(chain->block_count(), chain->height());  // Forks happened.

  const TimePoint now = env.sim()->Now();
  for (int miner = 0; miner < mining.miner_count; ++miner) {
    // Incremental == reference at the present...
    EXPECT_EQ(miners->VisibleHead(miner, now),
              miners->VisibleHeadScan(miner, now))
        << "miner " << miner;
    // ...a query into the past falls back to the exact scan...
    const TimePoint past = now / 2;
    EXPECT_EQ(miners->VisibleHead(miner, past),
              miners->VisibleHeadScan(miner, past));
    // ...and the tracker state is unharmed for later queries.
    EXPECT_EQ(miners->VisibleHead(miner, now + 1000),
              miners->VisibleHeadScan(miner, now + 1000));
  }
}

// ---- mempool ---------------------------------------------------------------

chain::Transaction SignedTransfer(uint64_t nonce) {
  chain::MutableTransaction tx;
  tx.type = chain::TxType::kTransfer;
  tx.nonce = nonce;
  tx.SignWith(crypto::KeyPair::FromSeed(1));
  return chain::Transaction(std::move(tx));
}

TEST(MempoolIndexTest, OutOfOrderArrivalsStaySorted) {
  chain::Mempool pool;
  const chain::Transaction t1 = SignedTransfer(1);
  const chain::Transaction t2 = SignedTransfer(2);
  const chain::Transaction t3 = SignedTransfer(3);
  ASSERT_TRUE(pool.Submit(t1, 300).ok());
  ASSERT_TRUE(pool.Submit(t2, 100).ok());  // Arrives out of order.
  ASSERT_TRUE(pool.Submit(t3, 300).ok());  // Ties keep submission order.

  auto candidates = pool.CandidatePointersAt(300, {});
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0]->Id(), t2.Id());
  EXPECT_EQ(candidates[1]->Id(), t1.Id());
  EXPECT_EQ(candidates[2]->Id(), t3.Id());
  EXPECT_EQ(pool.CandidatePointersAt(200, {}).size(), 1u);
}

TEST(MempoolIndexTest, FilterCallbackExcludes) {
  chain::Mempool pool;
  const chain::Transaction t1 = SignedTransfer(1);
  const chain::Transaction t2 = SignedTransfer(2);
  ASSERT_TRUE(pool.Submit(t1, 0).ok());
  ASSERT_TRUE(pool.Submit(t2, 0).ok());
  auto candidates = pool.CandidatePointersAt(
      10, [&](const crypto::Hash256& id) { return id == t1.Id(); });
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0]->Id(), t2.Id());
}

TEST(MempoolIndexTest, PruneDropsEntriesAndIdsTogether) {
  chain::Mempool pool;
  std::vector<chain::Transaction> txs;
  for (uint64_t i = 0; i < 10; ++i) {
    txs.push_back(SignedTransfer(i + 1));
    ASSERT_TRUE(pool.Submit(txs.back(), static_cast<TimePoint>(i)).ok());
  }
  std::vector<crypto::Hash256> included;
  for (size_t i = 0; i < txs.size(); i += 2) included.push_back(txs[i].Id());
  pool.Prune(included);
  EXPECT_EQ(pool.size(), 5u);
  for (size_t i = 0; i < txs.size(); ++i) {
    EXPECT_EQ(pool.Contains(txs[i].Id()), i % 2 == 1) << i;
  }
  // Survivors keep arrival order.
  auto candidates = pool.CandidatePointersAt(100, {});
  ASSERT_EQ(candidates.size(), 5u);
  for (size_t i = 0; i + 1 < candidates.size(); ++i) {
    EXPECT_EQ(candidates[i]->nonce() + 2, candidates[i + 1]->nonce());
  }
}

}  // namespace
}  // namespace ac3
