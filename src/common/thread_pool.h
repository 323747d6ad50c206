// A minimal fixed-size thread pool for the discovery algorithms and for
// session scheduling in the service layer.
//
// Two execution shapes are built on these workers. ParallelFor runs a
// fixed iteration space with the caller participating: it is the batch
// executor of the lattice engines, which run each level's node tasks and
// then its partition-derive tasks as one loop each (algo/lattice_walk.cc).
// See docs/CONCURRENCY.md for the combined thread-safety
// contract. The engines merge task results in canonical node order,
// keeping output deterministic regardless of thread count (verified by
// tests/parallel_test.cc).
//
// Submit() adds fire-and-forget task scheduling on the same workers: the
// DiscoveryService (service/discovery_service.h) queues whole discovery
// sessions this way, so at most num_threads() sessions execute at once and
// the rest wait their turn. Tasks and ParallelFor loops share the workers;
// a worker busy with a long task simply never joins a loop (the loop's
// caller always participates, so loops cannot starve).
#ifndef FASTOD_COMMON_THREAD_POOL_H_
#define FASTOD_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fastod {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1). Workers are named
  /// "<name_prefix>-<i>" where the platform supports thread names
  /// (pthread_setname_np truncates to 15 characters), so pool threads
  /// are attributable in gdb/top/TSan reports. The default prefix marks
  /// the shared service pool; engine-private pools pass their own (see
  /// algo/lattice_walk.h).
  explicit ThreadPool(int num_threads,
                      const char* name_prefix = "fastod-wkr");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs body(i) for every i in [0, count) and blocks until all
  /// iterations finish. Each claim takes one index; the calling thread
  /// participates, so a busy or stopped pool degrades to running the
  /// whole loop on the caller. body must be safe to call concurrently
  /// for distinct i. No execution order is guaranteed.
  ///
  /// Exceptions: the first exception a body throws is captured, every
  /// later claim is skipped (the loop still drains), and ParallelFor
  /// rethrows it on the calling thread. One loop at a time per pool.
  void ParallelFor(int64_t count, const std::function<void(int64_t)>& body);

  /// The party running the calling ParallelFor body: 0 on the loop's
  /// caller and outside any loop, and a distinct value in
  /// [1, num_threads()] for each worker that joined the loop. Bodies
  /// running at the same time see distinct parties, so a caller can
  /// index per-party scratch by it.
  static int CurrentParty();

  /// Enqueues a task for execution on the next free worker and returns
  /// immediately. Tasks run in submission order (one worker each) and may
  /// overlap arbitrarily with each other and with ParallelFor loops.
  /// Shutdown drains the queue: every accepted task runs before the pool
  /// is torn down, so tasks may safely reference state that outlives the
  /// pool object. An exception escaping a task is caught at the worker
  /// boundary and discarded — the worker survives; tasks that need the
  /// failure must catch it themselves and report through their own
  /// channel (as DiscoverySession::Run does via Status).
  ///
  /// Returns false — and does not take the task — once Stop() has begun,
  /// instead of racing shutdown. Callers owning a failure channel
  /// surface that as kUnavailable (see DiscoveryService::Submit).
  [[nodiscard]] bool Submit(std::function<void()> task);

  /// Drains queued tasks and joins the workers. Idempotent; also run by
  /// the destructor. After Stop(), Submit() refuses new tasks.
  void Stop();

 private:
  struct ForLoop {
    int64_t count = 0;
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> done{0};
    int refs = 0;        // workers currently draining; guarded by mutex_
    int next_party = 1;  // the next joining worker's; guarded by mutex_
    std::atomic<bool> failed{false};
    std::exception_ptr error;  // first body exception; guarded by mutex_
    const std::function<void(int64_t)>* body = nullptr;
  };

  void WorkerMain();
  // Claims and runs indexes of `loop` as `party` until it is exhausted.
  void DrainLoop(ForLoop* loop, int party);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  ForLoop* active_ = nullptr;  // guarded by mutex_ for hand-off
  uint64_t generation_ = 0;    // bumps per ParallelFor to wake workers
  std::deque<std::function<void()>> tasks_;  // guarded by mutex_
  bool shutdown_ = false;
};

}  // namespace fastod

#endif  // FASTOD_COMMON_THREAD_POOL_H_
