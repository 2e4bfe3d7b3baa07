#include "src/common/worker_pool.h"

#include <thread>
#include <utility>
#include <vector>

namespace ac3::common {

namespace {

/// True while this thread runs a round's task: always on a spawned worker,
/// and on a caller for the length of its round. A round started while it
/// is set runs inline.
thread_local bool in_task = false;

/// Marks the calling thread as running a round's task until destroyed.
class InTask {
 public:
  InTask() : outer_(in_task) { in_task = true; }
  ~InTask() { in_task = outer_; }
  InTask(const InTask&) = delete;
  InTask& operator=(const InTask&) = delete;

  /// True when the thread was already running a task.
  bool nested() const { return outer_; }

 private:
  const bool outer_;
};

}  // namespace

/// The spawned half of the pool: `width` threads that sleep on the
/// pool's round counter. Each wakes when a round is published, claims
/// indices of whatever round is open, and sleeps again; the caller never
/// waits for a worker that claimed nothing, so one that wakes late costs
/// the round nothing.
class WorkerPool::Gang {
 public:
  Gang(WorkerPool* pool, int width) : pool_(pool) {
    threads_.reserve(static_cast<size_t>(width));
    for (int t = 0; t < width; ++t) {
      threads_.emplace_back([this] { Loop(); });
    }
  }

  Gang(const Gang&) = delete;
  Gang& operator=(const Gang&) = delete;

  ~Gang() {
    stop_ = true;
    pool_->rounds_.fetch_add(1);
    pool_->rounds_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }

 private:
  void Loop() {
    in_task = true;
    for (uint32_t seen = 0;;) {
      pool_->rounds_.wait(seen);
      seen = pool_->rounds_.load();
      if (stop_) return;
      pool_->Drain();
    }
  }

  WorkerPool* const pool_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

namespace {

/// ticket_'s low half while a round is being set up: no count reaches it,
/// so no claim succeeds.
constexpr uint32_t kClosed = ~uint32_t{0};

uint64_t Ticket(uint32_t round, uint32_t index) {
  return (uint64_t{round} << 32) | index;
}

}  // namespace

int WorkerPool::ResolveThreads(int threads) {
  if (threads > 0) return threads;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? static_cast<int>(hardware) : 1;
}

WorkerPool& WorkerPool::ForThisThread() {
  thread_local WorkerPool pool;
  return pool;
}

WorkerPool::WorkerPool(int threads) : threads_(ResolveThreads(threads)) {}

WorkerPool::~WorkerPool() {
  gang_.reset();  // Join the workers while the round state they read lives.
}

void WorkerPool::Drain() {
  for (;;) {
    // The claim succeeds only while the ticket still names this round and
    // its index; a round closed or replaced since the load fails the swap.
    uint64_t ticket = ticket_.load();
    uint32_t count;
    do {
      count = count_.load();
      if (static_cast<uint32_t>(ticket) >= count) return;
    } while (!ticket_.compare_exchange_weak(ticket, ticket + 1));
    if (!failed_) {
      try {
        (*task_.load())(static_cast<uint32_t>(ticket));
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu_);
        if (error_ == nullptr) error_ = std::current_exception();
        failed_ = true;
      }
    }
    if (done_.fetch_add(1) + 1 == count) done_.notify_all();
  }
}

void WorkerPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const InTask round;
  if (threads_ == 1 || n == 1 || round.nested() || n >= kClosed) {
    // Inline serial round — exceptions propagate directly, which is the
    // same caller-visible contract as the parallel rethrow below.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (gang_ == nullptr) gang_ = std::make_unique<Gang>(this, threads_ - 1);
  const uint32_t number = rounds_.load() + 1;
  ticket_ = Ticket(number, kClosed);
  count_ = static_cast<uint32_t>(n);
  task_ = &fn;
  done_ = 0;
  failed_ = false;
  error_ = nullptr;
  ticket_ = Ticket(number, 0);
  rounds_ = number;
  rounds_.notify_all();
  Drain();
  for (uint32_t done = done_.load(); done != n; done = done_.load()) {
    done_.wait(done);
  }
  if (error_ != nullptr) {
    std::rethrow_exception(std::exchange(error_, nullptr));
  }
}

}  // namespace ac3::common
