#include "common/task_graph.h"

#include <utility>

#include "common/thread_pool.h"

namespace fastod {

namespace {
// Routes Spawn() calls made from inside a task to the worker's own slot.
// Saved/restored around WorkerLoop so nested graphs (a task running a
// private graph of its own) stay correct.
thread_local const TaskGraph* tls_graph = nullptr;
thread_local int tls_slot = 0;
}  // namespace

TaskGraph::TaskGraph(ThreadPool* pool) : pool_(pool) {
  const int parties =
      pool_ != nullptr ? pool_->num_threads() + 1 : 1;
  slots_.reserve(parties);
  for (int i = 0; i < parties; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

int TaskGraph::CurrentSlot() { return tls_slot; }

void TaskGraph::Spawn(std::function<void()> task) {
  int slot;
  if (tls_graph == this) {
    slot = tls_slot;
  } else {
    slot = static_cast<int>(round_robin_.fetch_add(
                                1, std::memory_order_relaxed) %
                            slots_.size());
  }
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  spawned_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(slots_[slot]->mutex);
    slots_[slot]->deque.push_back(std::move(task));
  }
  queued_.fetch_add(1, std::memory_order_release);
  // Bridge the sleep mutex so a worker between its predicate check and
  // its block cannot miss this wakeup.
  { std::lock_guard<std::mutex> lock(mutex_); }
  wake_.notify_one();
}

std::function<void()> TaskGraph::Pop(int slot) {
  {
    Slot& own = *slots_[slot];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.deque.empty()) {
      std::function<void()> task = std::move(own.deque.back());
      own.deque.pop_back();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return task;
    }
  }
  const int n = static_cast<int>(slots_.size());
  for (int k = 1; k < n; ++k) {
    Slot& victim = *slots_[(slot + k) % n];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.deque.empty()) {
      std::function<void()> task = std::move(victim.deque.front());
      victim.deque.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      stolen_.fetch_add(1, std::memory_order_relaxed);
      return task;
    }
  }
  return nullptr;
}

void TaskGraph::WorkerLoop(int slot) {
  const TaskGraph* prev_graph = tls_graph;
  const int prev_slot = tls_slot;
  tls_graph = this;
  tls_slot = slot;
  while (true) {
    std::function<void()> task = Pop(slot);
    if (task) {
      if (!abandoned_.load(std::memory_order_relaxed)) {
        try {
          task();
          executed_.fetch_add(1, std::memory_order_relaxed);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex_);
          if (!abandoned_.load(std::memory_order_relaxed)) {
            first_error_ = std::current_exception();
            abandoned_.store(true, std::memory_order_relaxed);
          }
        }
      }
      if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Graph drained: release every sleeper so Run() can return.
        { std::lock_guard<std::mutex> lock(mutex_); }
        wake_.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    if (outstanding_.load(std::memory_order_acquire) == 0) break;
    wake_.wait(lock, [&] {
      return queued_.load(std::memory_order_acquire) > 0 ||
             outstanding_.load(std::memory_order_acquire) == 0;
    });
    if (outstanding_.load(std::memory_order_acquire) == 0) break;
  }
  tls_graph = prev_graph;
  tls_slot = prev_slot;
}

void TaskGraph::Run() {
  const int parties = static_cast<int>(slots_.size());
  if (pool_ != nullptr && parties > 1) {
    // Every party claims a distinct slot; ParallelFor makes the caller
    // participate, so all `parties` loops run even if the pool is busy
    // or already stopped (the caller then drains the graph alone — the
    // no-deadlock guarantee tests/task_graph_test.cc pins).
    std::atomic<int> next_slot{0};
    pool_->ParallelFor(parties, [&](int64_t) {
      WorkerLoop(next_slot.fetch_add(1, std::memory_order_relaxed) %
                 parties);
    });
  } else {
    WorkerLoop(0);
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    error = std::exchange(first_error_, nullptr);
    abandoned_.store(false, std::memory_order_relaxed);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace fastod
