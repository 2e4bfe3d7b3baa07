// WorkerPool: the fan-out primitive behind the sweep runner, the racing
// miners' nonce search and the block checks.
//
// It has three users:
//
//   * runner::SweepRunner runs a grid of independent seeded worlds as
//     rounds of `n` independent tasks on a pool it owns.
//   * chain::MineHeaderBatch runs one round of searchers, each claiming
//     nonce chunks from the batch's own cursor.
//   * chain::Blockchain checks the signatures of a selection's candidates
//     in 64-transaction chunks, and runs a validated block's staged
//     re-execution beside its two roots.
//
// The last two share the calling thread's pool (ForThisThread). This
// class is the round, kept out of all three so its thread policy lives in
// one place and is tested on its own (WorkerPoolTest in
// tests/common_test.cc).
//
// Design points:
//
//   * **Persistent + lazily spawned.** No thread is created until the
//     first round that actually has parallel work (>= 2 indices and >= 2
//     resolved threads); later rounds reuse the same threads() - 1
//     workers, so a narrow round costs a wake-up instead of a create/join
//     cycle.
//   * **Claimed work only.** A round is published by storing its task,
//     count and an open claim ticket, then waking the workers. The caller
//     claims indices alongside whichever workers wake in time and returns
//     once every claimed index has finished: it never waits for a worker
//     that claimed nothing. A worker that wakes late, or is descheduled
//     by a busy host, finds the round closed and sleeps again; only one
//     that holds a claimed index can keep the caller waiting. Waiting for
//     every worker, as a barrier does, lost the block checks' gain on a
//     loaded host (docs/benchmarks.md, "Block checks on every core").
//     Each claim and completion is a sequentially consistent atomic, and
//     the last completion publishes every task's writes to the caller.
//   * **Nested rounds run inline.** A round started on a thread that is
//     running a round's task, on any pool, runs its indices in order on
//     that thread. A sweep world that mines a batch or checks a block
//     therefore never fans out a second time, and no pool ever waits on
//     itself.
//   * **Exceptions surface on the caller.** A throwing task does not
//     escape a worker thread into std::terminate: the first exception is
//     captured, the round runs no further index, and the exception is
//     rethrown from ParallelFor on the calling thread — matching what an
//     inline serial loop would have done.
//   * **One thread-count policy.** `threads <= 0` resolves to
//     hardware_concurrency() clamped to >= 1 in exactly one place
//     (ResolveThreads); the standard lets hardware_concurrency() report
//     0, which would otherwise leave a pool with no threads.

#ifndef AC3_COMMON_WORKER_POOL_H_
#define AC3_COMMON_WORKER_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>

namespace ac3::common {

/// A persistent, lazily-spawned worker pool running index-claiming
/// ParallelFor rounds (see the file comment for the design
/// contract). One instance serves many rounds; a round started inside a
/// round's task runs inline, and a single instance must not run rounds
/// from two threads at once.
class WorkerPool {
 public:
  /// The calling thread's own pool, one thread per core, shared by every
  /// caller on that thread (MineHeaderBatch and the block checks). Its
  /// workers are spawned on its first parallel round and joined when the
  /// thread exits.
  static WorkerPool& ForThisThread();

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
  /// round runs no further index (ones already running finish) and the
  /// first captured exception is rethrown here, on the caller. `n <= 1`,
  /// n >= 2^32 - 1, a 1-thread pool, or a call from inside another
  /// round's task runs fn(0), fn(1), ... in order on the calling thread
  /// with no worker involvement.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  /// The spawned workers (defined in the .cc): threads() - 1 threads that
  /// sleep until a round is published and then claim from whatever round
  /// is open.
  class Gang;

  /// Claims indices of the open round until none is left, runs each (or,
  /// once a task has thrown, skips it) and counts it done.
  void Drain();

  const int threads_;  ///< Resolved thread count (>= 1).
  std::unique_ptr<Gang> gang_;  ///< Spawned workers; null until needed.

  // Round state. A claim is a compare-and-swap on ticket_, which holds the
  // round's number in its high 32 bits and its next unclaimed index in the
  // low 32, and succeeds only while that index is below count_.
  // ParallelFor closes the ticket before it rewrites the rest and opens
  // the new round's ticket after, so no claim ever mixes two rounds.
  std::atomic<uint64_t> ticket_{0};  ///< Round number and next index.
  std::atomic<uint32_t> count_{0};   ///< Indices in the open round.
  std::atomic<const std::function<void(size_t)>*> task_{nullptr};
      ///< The open round's fn.
  std::atomic<uint32_t> done_{0};    ///< Claimed indices finished.
  std::atomic<uint32_t> rounds_{0};  ///< Rounds published; workers wait.
  std::atomic<bool> failed_{false};  ///< A task threw; skip the rest.
  std::exception_ptr error_;         ///< First captured exception.
  std::mutex error_mu_;              ///< Guards error_ among workers.
};

}  // namespace ac3::common

#endif  // AC3_COMMON_WORKER_POOL_H_
