// WorkerPool: the fan-out primitive behind the sweep runner and the
// racing miners' nonce search.
//
// runner::SweepRunner runs a grid of independent seeded worlds as rounds
// of `n` independent tasks: workers claim indices from a shared counter,
// and the caller blocks until the round fully drains.
// chain::MineHeaderBatch runs one round of searchers on a pool its
// calling thread owns (`thread_local`), each claiming nonce chunks from
// the batch's own cursor. This class is that round, kept out of both so
// its thread policy lives in one place and is tested on its own
// (WorkerPoolTest in tests/common_test.cc).
//
// Design points:
//
//   * **Persistent + lazily spawned.** No thread is created until the
//     first round that actually has parallel work (>= 2 indices and >= 2
//     resolved threads); later rounds reuse the same workers, so a
//     narrow round costs two barrier hops instead of a create/join cycle.
//     The gang grows monotonically (by rebuild) when a wider round
//     arrives, so an 8-wide round on a 32-thread pool never parks 31
//     idle barrier participants.
//   * **Barrier-synchronized rounds.** One std::barrier opens the round
//     (publishing the task, count, and cursor to the workers) and closes
//     it (publishing every worker's writes back to the caller), so the
//     round body needs no further synchronization beyond the index
//     counter.
//   * **Exceptions surface on the caller.** A throwing task does not
//     escape a worker thread into std::terminate: the first exception is
//     captured, the round stops claiming further indices, and the
//     exception is rethrown from ParallelFor on the calling thread —
//     matching what an inline serial loop would have done.
//   * **One thread-count policy.** `threads <= 0` resolves to
//     hardware_concurrency() clamped to >= 1 in exactly one place
//     (ResolveThreads); the standard lets hardware_concurrency() report
//     0, which would otherwise leave a pool with no threads.

#ifndef AC3_COMMON_WORKER_POOL_H_
#define AC3_COMMON_WORKER_POOL_H_

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>

namespace ac3::common {

/// A persistent, lazily-spawned, barrier-synchronized worker pool running
/// index-claiming ParallelFor rounds (see the file comment for the design
/// contract). One instance serves many rounds; rounds do not nest and a
/// single instance must not run rounds from two threads at once.
class WorkerPool {
 public:
  /// The single thread-count policy: values > 0 pass through untouched;
  /// `threads <= 0` selects std::thread::hardware_concurrency() clamped
  /// to >= 1 (the standard allows it to report 0).
  static int ResolveThreads(int threads);

  /// Creates a pool whose rounds run on ResolveThreads(threads) threads
  /// (the calling thread included — N threads means N - 1 spawned
  /// workers, created lazily on the first round that needs them).
  explicit WorkerPool(int threads = 0);

  /// Joins the spawned workers (if any). Must not race a running round.
  ~WorkerPool();

  /// Workers hold a pointer to `this`: not copyable.
  WorkerPool(const WorkerPool&) = delete;
  /// Workers hold a pointer to `this`: not assignable.
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// The resolved thread count (>= 1), fixed at construction.
  int threads() const { return threads_; }

  /// Executes fn(0..n-1), each index exactly once, across the pool; the
  /// calling thread drains alongside the workers and the call returns
  /// only when the round is fully finished. `fn` must be safe to call
  /// concurrently for distinct indices. If any invocation throws, the
  /// round stops claiming further indices (already-claimed ones still
  /// run) and the first captured exception is rethrown here, on the
  /// caller. `n <= 1` or a 1-thread pool runs inline with no worker
  /// involvement.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  /// A fixed-width gang of workers parked on a shared barrier (defined in
  /// the .cc; rebuilt — rarely, and at most threads() - 1 times — when a
  /// wider round arrives).
  class Gang;

  /// Ensures at least `want` spawned workers, rebuilding the gang if the
  /// current one is narrower.
  void EnsureWidth(int want);

  /// Claims indices from cursor_ until the round is exhausted (or a task
  /// failure stops the round), capturing the first exception.
  void Drain();

  const int threads_;  ///< Resolved thread count (>= 1).
  std::unique_ptr<Gang> gang_;  ///< Spawned workers; null until needed.
  int gang_width_ = 0;          ///< Workers in gang_ (0 = none spawned).

  // Round state: written by ParallelFor before the opening barrier,
  // read by workers during the round (the barrier provides the ordering).
  const std::function<void(size_t)>* task_ = nullptr;  ///< Current round's fn.
  std::atomic<size_t> cursor_{0};    ///< Next unclaimed index.
  size_t count_ = 0;                 ///< Indices in the current round.
  std::atomic<bool> failed_{false};  ///< A task threw; stop claiming.
  std::exception_ptr error_;         ///< First captured exception.
  std::mutex error_mu_;              ///< Guards error_ among workers.
};

}  // namespace ac3::common

#endif  // AC3_COMMON_WORKER_POOL_H_
