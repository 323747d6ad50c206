// A task scheduler with per-worker work-stealing deques, layered on
// ThreadPool: the batch executor of the lattice engines. FASTOD and TANE
// run each level's node tasks, and then its partition-derive tasks, as
// one graph each (algo/fastod.cc, algo/tane.cc). Tasks may also spawn
// more tasks while the graph runs; the engines do not.
//
// Scheduling discipline is classic work-stealing:
//   - each worker owns a deque; Spawn() from inside a task pushes onto
//     the spawning worker's own deque (locality: a node's children reuse
//     the partitions their parent just built),
//   - a worker pops its own deque from the back (LIFO, depth-first, keeps
//     the working set hot) and steals from other deques at the front
//     (FIFO, takes the oldest — largest — piece of work),
//   - idle workers sleep on a condition variable and are woken per spawn.
//
// Determinism contract: TaskGraph guarantees nothing about execution
// order — callers that need deterministic output must buffer per-task
// results and merge them in a canonical order themselves (see
// algo/fastod.cc's per-level merge, and docs/CONCURRENCY.md).
//
// Exceptions: the first exception thrown by a task is captured; the
// remaining queued tasks are discarded (popped but not run) so the graph
// still drains, and Run() rethrows the captured exception on the calling
// thread. Run() is the exception boundary: ThreadPool::ParallelFor, which
// it runs on, requires a body that never throws. This keeps the session
// error path (Status out of Algorithm::Execute) intact.
#ifndef FASTOD_COMMON_TASK_GRAPH_H_
#define FASTOD_COMMON_TASK_GRAPH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace fastod {

class ThreadPool;

class TaskGraph {
 public:
  /// A graph executed by `pool`'s workers plus the thread that calls
  /// Run(). `pool` may be null (or stopped): Run() then executes every
  /// task inline on the calling thread — same semantics, no concurrency.
  /// The pool is borrowed and must outlive the graph.
  explicit TaskGraph(ThreadPool* pool);

  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Enqueues a task. Thread-safe; callable before Run() (to seed the
  /// graph) and from inside running tasks (to add continuations as
  /// dependencies resolve). A task spawned from inside a task lands on
  /// the spawning worker's own deque; external spawns are distributed
  /// round-robin.
  void Spawn(std::function<void()> task);

  /// Executes tasks until the graph is drained: no task queued and no
  /// task running (tasks may spawn more tasks at any point before they
  /// return). The calling thread participates as a worker. Rethrows the
  /// first exception any task threw, after the drain completes. A graph
  /// may be reused: seed with Spawn() and Run() again after Run()
  /// returns (never concurrently).
  void Run();

  /// The slot of the party running the calling task, in [0, parties):
  /// tasks running at the same time on one graph see distinct slots, so
  /// a caller can index per-worker scratch by it. 0 outside any task.
  static int CurrentSlot();

  /// Scheduling telemetry, stable after Run() returns.
  int64_t spawned() const { return spawned_.load(std::memory_order_relaxed); }
  int64_t stolen() const { return stolen_.load(std::memory_order_relaxed); }
  int64_t executed() const {
    return executed_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::mutex mutex;
    std::deque<std::function<void()>> deque;  // guarded by mutex
  };

  // Runs tasks on slot `slot` until the graph drains.
  void WorkerLoop(int slot);
  // Own deque back, else steal another front; null when everything is
  // momentarily empty.
  std::function<void()> Pop(int slot);

  ThreadPool* pool_;  // borrowed; may be null
  std::vector<std::unique_ptr<Slot>> slots_;

  // Lifecycle counters. outstanding_ counts spawned-but-unfinished tasks
  // (the drain condition); queued_ counts spawned-but-unpopped tasks (the
  // idle-sleep condition).
  std::atomic<int64_t> outstanding_{0};
  std::atomic<int64_t> queued_{0};
  std::atomic<uint64_t> round_robin_{0};

  std::atomic<int64_t> spawned_{0};
  std::atomic<int64_t> stolen_{0};
  std::atomic<int64_t> executed_{0};

  // Idle workers sleep here; Spawn and task completion wake them.
  std::mutex mutex_;
  std::condition_variable wake_;

  // First task exception; drains the rest of the graph unrun.
  std::atomic<bool> abandoned_{false};
  std::exception_ptr first_error_;  // guarded by mutex_
};

}  // namespace fastod

#endif  // FASTOD_COMMON_TASK_GRAPH_H_
