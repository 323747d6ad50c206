#include "common/thread_pool.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/macros.h"

#if defined(__linux__)
#include <pthread.h>
#endif

namespace fastod {

namespace {

// Best effort: thread names are observability, never correctness.
void NameCurrentThread(const std::string& name) {
#if defined(__linux__)
  char truncated[16];  // pthread_setname_np limit, including the NUL
  std::snprintf(truncated, sizeof(truncated), "%s", name.c_str());
  (void)pthread_setname_np(pthread_self(), truncated);
#else
  (void)name;
#endif
}

// The party of the ParallelFor body running on this thread; see
// CurrentParty(). Saved and restored around each drain so a body that
// runs a loop on another pool sees its own party again afterwards.
thread_local int tls_party = 0;

}  // namespace

ThreadPool::ThreadPool(int num_threads, const char* name_prefix) {
  num_threads = std::max(1, num_threads);
  workers_.reserve(num_threads);
  const std::string prefix(name_prefix == nullptr ? "fastod-wkr"
                                                  : name_prefix);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, prefix, i] {
      NameCurrentThread(prefix + "-" + std::to_string(i));
      WorkerMain();
    });
  }
}

ThreadPool::~ThreadPool() { Stop(); }

void ThreadPool::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;  // idempotent; workers already joined(ing)
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::WorkerMain() {
  uint64_t seen_generation = 0;
  while (true) {
    ForLoop* loop = nullptr;
    int party = 0;
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] {
        return shutdown_ || !tasks_.empty() ||
               (active_ != nullptr && generation_ != seen_generation);
      });
      if (!tasks_.empty()) {
        // Tasks take priority: a pending session should not wait behind
        // loop iterations other workers already cover.
        task = std::move(tasks_.front());
        tasks_.pop_front();
      } else if (shutdown_) {
        return;  // queue drained; safe to exit
      } else {
        seen_generation = generation_;
        loop = active_;
        ++loop->refs;  // the loop object stays alive while refs > 0
        party = loop->next_party++;
      }
    }
    if (task) {
      // Worker boundary: a throwing task must not unwind into the worker
      // loop (std::thread would terminate the process). Tasks with a
      // failure channel (DiscoverySession::Run) convert exceptions to
      // Status themselves; this is the backstop for ones that don't.
      try {
        task();
      } catch (...) {
      }
      continue;
    }
    DrainLoop(loop, party);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --loop->refs;
    }
    work_done_.notify_all();
  }
}

bool ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A submission racing (or trailing) Stop() is refused, not crashed
    // on and not silently dropped: the caller learns the pool is gone.
    if (shutdown_) return false;
    tasks_.push_back(std::move(task));
  }
  work_ready_.notify_one();
  return true;
}

int ThreadPool::CurrentParty() { return tls_party; }

void ThreadPool::DrainLoop(ForLoop* loop, int party) {
  const int saved_party = tls_party;
  tls_party = party;
  while (true) {
    const int64_t i = loop->next.fetch_add(1);
    if (i >= loop->count) break;
    // After the first exception the remaining claims are skipped, not
    // run: the loop drains quickly and the caller rethrows.
    if (!loop->failed.load(std::memory_order_relaxed)) {
      try {
        (*loop->body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (loop->error == nullptr) loop->error = std::current_exception();
        loop->failed.store(true, std::memory_order_relaxed);
      }
    }
    loop->done.fetch_add(1);
  }
  tls_party = saved_party;
}

void ThreadPool::ParallelFor(int64_t count,
                             const std::function<void(int64_t)>& body) {
  if (count <= 0) return;
  ForLoop loop;
  loop.count = count;
  loop.body = &body;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    active_ = &loop;
    ++generation_;
  }
  work_ready_.notify_all();
  DrainLoop(&loop, 0);  // the caller works too
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // The loop may be destroyed only when every iteration has run AND no
    // worker still holds a reference to it.
    work_done_.wait(lock, [&] {
      return loop.done.load() == loop.count && loop.refs == 0;
    });
    active_ = nullptr;
    error = loop.error;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace fastod
