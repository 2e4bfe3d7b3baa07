// Arena / pool reclamation edge cases. The NodePool behind PersistentMap
// recycles node storage through thread-local free lists, and the map's
// intrusive refcounts decide *when* a node goes back to the pool — so the
// dangerous corners are lifetime corners: snapshots outliving the handle
// that created them, heavy snapshot/mutate churn (every iteration both
// allocates path copies and releases dropped ones), structure shared
// across threads, and free lists surviving thread exit. The churn and
// lifetime tests run unchanged under the sanitizer job, where the pool is
// bypassed (NodePool<T>::kPoolingEnabled == false) and ASAN checks every
// node individually; pool-recycling assertions are gated on pooling being
// compiled in.

#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/arena.h"
#include "src/common/persistent_map.h"
#include "src/common/random.h"

namespace ac3 {
namespace {

// ---- NodePool mechanics ----------------------------------------------------

struct PoolNode {
  uint64_t payload[8];
};

TEST(NodePoolTest, RecyclesFreedStorageLifo) {
  if (!NodePool<PoolNode>::kPoolingEnabled) {
    GTEST_SKIP() << "pooling disabled under sanitizers";
  }
  void* first = NodePool<PoolNode>::Allocate();
  NodePool<PoolNode>::Deallocate(first);
  void* second = NodePool<PoolNode>::Allocate();
  // Thread-local free list is LIFO: the block comes straight back.
  EXPECT_EQ(first, second);
  NodePool<PoolNode>::Deallocate(second);
}

TEST(NodePoolTest, SlabCountStaysBoundedUnderRecycling) {
  if (!NodePool<PoolNode>::kPoolingEnabled) {
    GTEST_SKIP() << "pooling disabled under sanitizers";
  }
  // Allocate-free cycles far beyond one slab's capacity must not carve new
  // slabs once the free list is primed.
  void* warm = NodePool<PoolNode>::Allocate();
  NodePool<PoolNode>::Deallocate(warm);
  const size_t slabs_before = NodePool<PoolNode>::SlabCount();
  for (size_t i = 0; i < 8 * NodePool<PoolNode>::kSlabNodes; ++i) {
    void* p = NodePool<PoolNode>::Allocate();
    NodePool<PoolNode>::Deallocate(p);
  }
  EXPECT_EQ(NodePool<PoolNode>::SlabCount(), slabs_before);
}

TEST(NodePoolTest, FreeListSurvivesThreadExit) {
  if (!NodePool<PoolNode>::kPoolingEnabled) {
    GTEST_SKIP() << "pooling disabled under sanitizers";
  }
  // A worker allocates enough to force at least one slab, frees it all,
  // and exits; its cache must splice to the global overflow so later
  // threads reuse the memory instead of carving fresh slabs.
  std::thread([] {
    std::vector<void*> blocks;
    for (size_t i = 0; i < NodePool<PoolNode>::kSlabNodes; ++i) {
      blocks.push_back(NodePool<PoolNode>::Allocate());
    }
    for (void* p : blocks) NodePool<PoolNode>::Deallocate(p);
  }).join();
  const size_t slabs_before = NodePool<PoolNode>::SlabCount();
  std::thread([&] {
    std::vector<void*> blocks;
    for (size_t i = 0; i < NodePool<PoolNode>::kSlabNodes; ++i) {
      blocks.push_back(NodePool<PoolNode>::Allocate());
    }
    EXPECT_EQ(NodePool<PoolNode>::SlabCount(), slabs_before);
    for (void* p : blocks) NodePool<PoolNode>::Deallocate(p);
  }).join();
}

// ---- lifetime corners through PersistentMap --------------------------------

TEST(ArenaReclamationTest, SnapshotOutlivesOriginMap) {
  PersistentMap<int, int> snapshot;
  {
    auto origin = std::make_unique<PersistentMap<int, int>>();
    for (int i = 0; i < 500; ++i) origin->Put(i, i * 3);
    snapshot = *origin;  // Shares every node with `origin`.
    origin->Erase(123);  // Diverge a little before dying.
  }                      // `origin` destroyed; snapshot keeps the nodes alive.
  ASSERT_EQ(snapshot.size(), 500u);
  for (int i = 0; i < 500; ++i) {
    ASSERT_NE(snapshot.Find(i), nullptr) << i;
    EXPECT_EQ(*snapshot.Find(i), i * 3);
  }
}

TEST(ArenaReclamationTest, InterleavedSnapshotMutateChurn) {
  // Rolling snapshots + mutations: every round releases an old snapshot's
  // refs (returning divergent nodes to the pool) while path-copying new
  // ones. A stale pointer or double free here is exactly what ASAN's
  // pool-bypass build catches byte-accurately.
  constexpr int kRounds = 2000;
  constexpr int kSnapshots = 7;
  PersistentMap<uint64_t, uint64_t> live;
  std::map<uint64_t, uint64_t> reference;
  std::vector<PersistentMap<uint64_t, uint64_t>> ring(kSnapshots);
  std::vector<std::map<uint64_t, uint64_t>> ring_reference(kSnapshots);
  Rng rng(90210);
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t key = rng.NextU64() % 193;
    if (rng.NextU64() % 4 == 0) {
      live.Erase(key);
      reference.erase(key);
    } else {
      const uint64_t value = rng.NextU64();
      live.Put(key, value);
      reference[key] = value;
    }
    const size_t slot = static_cast<size_t>(round) % kSnapshots;
    ring[slot] = live;  // Overwrite releases the oldest snapshot's nodes.
    ring_reference[slot] = reference;
  }
  for (size_t s = 0; s < kSnapshots; ++s) {
    ASSERT_EQ(ring[s].size(), ring_reference[s].size()) << s;
    auto it = ring_reference[s].begin();
    for (const auto& [key, value] : ring[s]) {
      ASSERT_EQ(key, it->first);
      ASSERT_EQ(value, it->second);
      ++it;
    }
  }
}

TEST(ArenaReclamationTest, CrossThreadSharedStructureMutation) {
  // Divergent snapshots sharing one base tree are copied, mutated, and
  // released on several threads at once, as any caller that hands a
  // snapshot to another thread may do. The intrusive refcounts must be
  // atomic for this to be sound; a torn count shows up as a leak or
  // use-after-free under the sanitizer jobs and as corruption here.
  PersistentMap<uint64_t, uint64_t> base;
  for (uint64_t i = 0; i < 4000; ++i) base.Put(i, i);
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  std::vector<bool> ok(kThreads, false);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      bool good = true;
      for (int round = 0; round < 50; ++round) {
        PersistentMap<uint64_t, uint64_t> mine = base;  // Shared structure.
        const uint64_t stride = static_cast<uint64_t>(t) + 2;
        for (uint64_t k = 0; k < 4000; k += stride) {
          mine.Put(k, k * stride);
        }
        for (uint64_t k = 1; k < 4000; k += 2 * stride) mine.Erase(k);
        good = good && mine.size() <= 4000 && mine.Find(0) != nullptr;
      }
      ok[static_cast<size_t>(t)] = good;
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_TRUE(ok[static_cast<size_t>(t)]);
  // The base tree is untouched by any of it.
  ASSERT_EQ(base.size(), 4000u);
  for (uint64_t i = 0; i < 4000; i += 97) EXPECT_EQ(base.at(i), i);
}

}  // namespace
}  // namespace ac3
