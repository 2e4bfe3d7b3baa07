// NodePool: slab-backed, thread-cached storage for fixed-size nodes.
//
// The persistent (copy-on-write) B+-trees behind `LedgerState` allocate
// and free one node per copied level and per split — millions of
// same-sized allocations over a long simulation, of two types per map (a
// ledger leaf is ~430 B, an inner node ~680 B). With `std::make_shared`
// each of those is a malloc of node + control block and a heap free on
// release, and that allocator traffic was the dominant per-op cost of the
// ledger hot path (ROADMAP, PR 2 baselines). NodePool replaces it with
// slab allocation:
//
//   * memory is carved from per-type slabs of `kSlabBytes` (32 KiB), so
//     node allocation is a thread-local free-list pop (no lock, no
//     size-class lookup) and release is a push. A slab is sized in bytes,
//     not nodes, so a wide node type does not swell the two slabs each
//     thread may cache;
//   * freed nodes go to the *freeing* thread's cache — a node may be
//     allocated on one thread and released on another (a snapshot whose
//     last copy dies on a thread other than the one that built it);
//   * caches exchange memory with a global overflow list in bounded
//     batches: a cache that grows past two slabs spills one slab's worth,
//     an empty cache refills at most one slab's worth, and a dying
//     thread's cache is spliced over whole — so no single thread hoards
//     the free memory, and worker threads that come and go (a
//     SweepRunner destroyed at the end of its sweep, a thread's own
//     common::WorkerPool joined when the thread exits) keep reusing the
//     same nodes instead of stranding them;
//   * slabs are never returned to the OS: the pool is process-lifetime by
//     design, matching the repo's batch benchmark/test processes.
//
// Sanitizer builds bypass the pool entirely and use plain `::operator
// new`/`delete`, so ASAN retains byte-accurate use-after-free and leak
// detection on every node (a recycling pool would otherwise mask both).
// The tests that assert recycling behavior are compiled out under ASAN via
// `NodePool<T>::kPoolingEnabled`.

#ifndef AC3_COMMON_ARENA_H_
#define AC3_COMMON_ARENA_H_

#include <cstddef>
#include <mutex>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define AC3_ARENA_POOLING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AC3_ARENA_POOLING 0
#else
#define AC3_ARENA_POOLING 1
#endif
#else
#define AC3_ARENA_POOLING 1
#endif

/// Core utilities shared by every module (the dependency root).
namespace ac3 {

/// Process-lifetime pool of raw `sizeof(T)` storage blocks. Allocate() and
/// Deallocate() hand out *uninitialized* storage: callers placement-new
/// into it and run the destructor before releasing (see PersistentMap's
/// NodeRef). Thread-safe; blocks may be freed on a different thread than
/// the one that allocated them.
template <typename T>
class NodePool {
 public:
  /// Bytes per slab: big enough to amortize the mutex-guarded refill
  /// (75 ledger-map leaves of ~430 B, 48 inner nodes of ~680 B), small
  /// enough that the two slabs a thread may cache per node type stay small
  /// however wide the node.
  static constexpr size_t kSlabBytes = 32 * 1024;
  /// Nodes per slab: as many as kSlabBytes holds, at least one.
  static constexpr size_t kSlabNodes =
      sizeof(T) < kSlabBytes ? kSlabBytes / sizeof(T) : 1;

  /// False in sanitizer builds, where every node is a plain heap
  /// allocation so ASAN can see it.
  static constexpr bool kPoolingEnabled = AC3_ARENA_POOLING != 0;

  /// Uninitialized storage for one T.
  static void* Allocate() {
#if AC3_ARENA_POOLING
    return Local().Pop();
#else
    return ::operator new(sizeof(T), std::align_val_t(alignof(T)));
#endif
  }

  /// Returns storage obtained from Allocate(). The T must already be
  /// destroyed.
  static void Deallocate(void* ptr) {
#if AC3_ARENA_POOLING
    Local().Push(ptr);
#else
    ::operator delete(ptr, std::align_val_t(alignof(T)));
#endif
  }

  /// Slabs carved so far, process-wide (monotonic; test/diagnostic hook —
  /// a workload that keeps allocating without recycling shows here).
  static size_t SlabCount() {
#if AC3_ARENA_POOLING
    std::lock_guard<std::mutex> lock(Global().mu);
    return Global().slab_count;
#else
    return 0;
#endif
  }

 private:
#if AC3_ARENA_POOLING
  /// A freed node reinterpreted as a singly-linked free-list link.
  struct FreeNode {
    FreeNode* next;
  };
  static_assert(sizeof(T) >= sizeof(FreeNode),
                "node type too small to thread a free list through");
  static_assert(alignof(T) >= alignof(FreeNode),
                "node alignment too weak for the free-list link");

  /// Shared refill/overflow state. Heap-allocated once and intentionally
  /// immortal: thread caches splice into it from thread destructors, which
  /// may run after any static destructor (pooling builds never free slabs,
  /// so there is nothing to reclaim at exit anyway).
  struct GlobalState {
    std::mutex mu;
    FreeNode* overflow = nullptr;
    size_t slab_count = 0;
  };

  static GlobalState& Global() {
    static GlobalState* global = new GlobalState;
    return *global;
  }

  class LocalCache {
   public:
    ~LocalCache() {
      if (head_ == nullptr) return;
      // Splice the whole local list onto the global overflow so the next
      // worker generation reuses it.
      FreeNode* tail = head_;
      while (tail->next != nullptr) tail = tail->next;
      GlobalState& global = Global();
      std::lock_guard<std::mutex> lock(global.mu);
      tail->next = global.overflow;
      global.overflow = head_;
      head_ = nullptr;
      // Frees can still land here afterwards, from thread_local or static
      // objects destroyed later on this thread; a stale count would send
      // their Spill past the end of the shorter list.
      count_ = 0;
    }

    void* Pop() {
      if (head_ == nullptr) Refill();
      FreeNode* node = head_;
      head_ = node->next;
      --count_;
      return node;
    }

    void Push(void* ptr) {
      FreeNode* node = static_cast<FreeNode*>(ptr);
      node->next = head_;
      head_ = node;
      // High-water spill: a cache holding two slabs' worth returns one
      // slab's worth to the overflow, so a thread that frees far more
      // than it allocates (the bench main thread tearing down a long
      // chain) doesn't hoard everything other threads could reuse.
      if (++count_ >= 2 * kSlabNodes) Spill();
    }

   private:
    /// Takes at most one slab's worth from the global overflow, else
    /// carves a new slab. Bounded adoption keeps one hungry thread from
    /// swallowing the whole shared list.
    void Refill() {
      GlobalState& global = Global();
      {
        std::lock_guard<std::mutex> lock(global.mu);
        if (global.overflow != nullptr) {
          FreeNode* tail = global.overflow;
          size_t got = 1;
          while (got < kSlabNodes && tail->next != nullptr) {
            tail = tail->next;
            ++got;
          }
          head_ = global.overflow;
          global.overflow = tail->next;
          tail->next = nullptr;
          count_ = got;
          return;
        }
        ++global.slab_count;
      }
      // Slab memory is immortal (see file comment); alignment covers T.
      char* slab = static_cast<char*>(
          ::operator new(kSlabNodes * sizeof(T), std::align_val_t(alignof(T))));
      for (size_t i = kSlabNodes; i-- > 0;) {
        Push(slab + i * sizeof(T));
      }
    }

    /// Moves one slab's worth of nodes to the global overflow.
    void Spill() {
      FreeNode* batch = head_;
      FreeNode* tail = head_;
      for (size_t i = 1; i < kSlabNodes; ++i) tail = tail->next;
      head_ = tail->next;
      count_ -= kSlabNodes;
      GlobalState& global = Global();
      std::lock_guard<std::mutex> lock(global.mu);
      tail->next = global.overflow;
      global.overflow = batch;
    }

    FreeNode* head_ = nullptr;
    size_t count_ = 0;
  };

  static LocalCache& Local() {
    thread_local LocalCache cache;
    return cache;
  }
#endif  // AC3_ARENA_POOLING
};

}  // namespace ac3

#endif  // AC3_COMMON_ARENA_H_
