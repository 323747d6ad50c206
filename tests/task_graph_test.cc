// The work-stealing task graph (common/task_graph.h) and the
// determinism guarantee of the engines built on it.
//
// Three layers of coverage:
//
//  * TaskGraph unit tests — drain semantics, spawn-from-task, reuse,
//    exception rethrow, and the degraded inline mode on a null or
//    stopped pool (no deadlock, same results);
//  * scheduler stress — 50 seeds of random tables run under the
//    "task_graph.task:sleep:1" latency fault, which perturbs task
//    completion order on every hit; output must stay bit-identical to
//    the serial baseline regardless of interleaving (the CI stress job
//    additionally runs this under TSan);
//  * fault points and shutdown — "fail" lands on the engine's
//    cancellation path, "throw" surfaces through the session as a
//    failed Status, and a service Submit() racing Shutdown() during a
//    live task-graph run fails the session kUnavailable instead of
//    deadlocking.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "algo/fastod.h"
#include "algo/tane.h"
#include "common/fault.h"
#include "common/status.h"
#include "common/task_graph.h"
#include "common/thread_pool.h"
#include "data/encode.h"
#include "gen/generators.h"
#include "gen/random_table.h"
#include "service/discovery_service.h"

namespace fastod {
namespace {

struct ScheduleGuard {
  ~ScheduleGuard() { fault::Clear(); }
};

// ------------------------------------------------- TaskGraph basics

TEST(TaskGraphTest, DrainsEverySeededTask) {
  ThreadPool pool(3);
  TaskGraph graph(&pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 200; ++i) {
    graph.Spawn([&] { ran.fetch_add(1); });
  }
  graph.Run();
  EXPECT_EQ(ran.load(), 200);
  EXPECT_EQ(graph.spawned(), 200);
  EXPECT_EQ(graph.executed(), 200);
  EXPECT_GE(graph.stolen(), 0);
}

TEST(TaskGraphTest, TasksSpawnTasksUntilDependenciesResolve) {
  // A binary fan-out four levels deep, spawned from inside running
  // tasks — the lattice-search shape in miniature.
  ThreadPool pool(4);
  TaskGraph graph(&pool);
  std::atomic<int> ran{0};
  std::function<void(int)> expand = [&](int depth) {
    ran.fetch_add(1);
    if (depth == 0) return;
    graph.Spawn([&, depth] { expand(depth - 1); });
    graph.Spawn([&, depth] { expand(depth - 1); });
  };
  graph.Spawn([&] { expand(4); });
  graph.Run();
  EXPECT_EQ(ran.load(), 31);  // 1 + 2 + 4 + 8 + 16
  EXPECT_EQ(graph.executed(), 31);
}

TEST(TaskGraphTest, NullPoolRunsInline) {
  TaskGraph graph(nullptr);
  std::atomic<int> ran{0};
  graph.Spawn([&] {
    ran.fetch_add(1);
    graph.Spawn([&] { ran.fetch_add(1); });
  });
  graph.Run();
  EXPECT_EQ(ran.load(), 2);
}

TEST(TaskGraphTest, StoppedPoolRunsInlineWithoutDeadlock) {
  // A pool that refuses work must degrade the graph to inline
  // execution on the calling thread, never block waiting for workers
  // that will not come.
  ThreadPool pool(2);
  pool.Stop();
  TaskGraph graph(&pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    graph.Spawn([&] { ran.fetch_add(1); });
  }
  graph.Run();
  EXPECT_EQ(ran.load(), 50);
}

TEST(TaskGraphTest, ReusableAcrossSequentialRuns) {
  ThreadPool pool(2);
  TaskGraph graph(&pool);
  int64_t total = 0;
  for (int round = 0; round < 20; ++round) {
    std::atomic<int64_t> sum{0};
    for (int i = 0; i < 64; ++i) {
      graph.Spawn([&sum, i] { sum.fetch_add(i); });
    }
    graph.Run();
    total += sum.load();
  }
  EXPECT_EQ(total, 20 * (63 * 64 / 2));
  EXPECT_EQ(graph.spawned(), 20 * 64);
  EXPECT_EQ(graph.executed(), 20 * 64);
}

TEST(TaskGraphTest, FirstExceptionRethrownAfterDrain) {
  ThreadPool pool(4);
  TaskGraph graph(&pool);
  std::atomic<int> ran{0};
  graph.Spawn([] { throw std::runtime_error("task boom"); });
  for (int i = 0; i < 100; ++i) {
    graph.Spawn([&] { ran.fetch_add(1); });
  }
  EXPECT_THROW(graph.Run(), std::runtime_error);
  // The graph drained (Run returned) and is reusable afterwards.
  graph.Spawn([&] { ran.fetch_add(1); });
  graph.Run();
  EXPECT_GE(ran.load(), 1);
}

TEST(TaskGraphTest, StealsHappenUnderSkewedLoad) {
  // External spawns distribute round-robin; a worker that finishes its
  // own deque must steal the long tasks parked on other deques. Steal
  // counts are scheduling-dependent, so assert only the invariant that
  // every task ran exactly once while steals were possible.
  ThreadPool pool(4);
  TaskGraph graph(&pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    graph.Spawn([&ran, i] {
      volatile int64_t x = 0;
      for (int64_t k = 0; k < (i % 4) * 20000; ++k) x = x + 1;
      ran.fetch_add(1);
    });
  }
  graph.Run();
  EXPECT_EQ(ran.load(), 32);
  EXPECT_EQ(graph.executed(), 32);
}

TEST(TaskGraphTest, CurrentSlotIsDistinctPerParty) {
  ThreadPool pool(3);
  TaskGraph graph(&pool);
  const int parties = pool.num_threads() + 1;
  std::vector<std::atomic<int>> busy(parties);
  std::atomic<bool> ok{true};
  for (int i = 0; i < 64; ++i) {
    graph.Spawn([&] {
      const int slot = TaskGraph::CurrentSlot();
      if (slot < 0 || slot >= parties) {
        ok = false;
        return;
      }
      // Two tasks running at once never share a slot.
      if (busy[slot].fetch_add(1) != 0) ok = false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      busy[slot].fetch_sub(1);
    });
  }
  graph.Run();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(TaskGraph::CurrentSlot(), 0);
}

// ------------------------------------------- randomized stress (50x)

// Latency injection at the per-task fault point scrambles completion
// order; the canonical-order merge must make the scramble invisible.
// Runs under TSan in the CI stress job, which also makes this the
// scheduler's data-race certification.
TEST(TaskGraphStressTest, FiftySeedsDeterministicUnderRandomLatency) {
  ScheduleGuard guard;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Table t = GenRandomTable(30, 5, 3, seed);
    auto rel = EncodedRelation::FromTable(t);
    ASSERT_TRUE(rel.ok());
    fault::Clear();
    FastodResult serial = Fastod().Discover(*rel);

    // Sleep from the first hit onward: every task gets a
    // deterministic-per-hit but schedule-shuffling delay.
    ASSERT_TRUE(fault::SetSchedule("task_graph.task:sleep:1"));
    FastodOptions opt;
    opt.num_threads = 1 + static_cast<int>(seed % 4) + 1;  // 2..5
    FastodResult parallel = Fastod(opt).Discover(*rel);
    EXPECT_GT(fault::Hits("task_graph.task"), 0) << "seed " << seed;

    EXPECT_EQ(serial.constancy_ods, parallel.constancy_ods)
        << "seed " << seed;
    EXPECT_EQ(serial.compatibility_ods, parallel.compatibility_ods)
        << "seed " << seed;
    EXPECT_EQ(serial.total_nodes, parallel.total_nodes) << "seed " << seed;
    EXPECT_EQ(serial.levels_processed, parallel.levels_processed)
        << "seed " << seed;
    EXPECT_FALSE(parallel.cancelled);
  }
}

TEST(TaskGraphStressTest, TaneDeterministicUnderRandomLatency) {
  ScheduleGuard guard;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Table t = GenRandomTable(40, 6, 4, seed * 17);
    auto rel = EncodedRelation::FromTable(t);
    ASSERT_TRUE(rel.ok());
    fault::Clear();
    TaneResult serial = Tane().Discover(*rel);

    ASSERT_TRUE(fault::SetSchedule("task_graph.task:sleep:1"));
    TaneOptions opt;
    opt.num_threads = 4;
    TaneResult parallel = Tane(opt).Discover(*rel);
    EXPECT_GT(fault::Hits("task_graph.task"), 0) << "seed " << seed;

    EXPECT_EQ(serial.fds, parallel.fds) << "seed " << seed;
    EXPECT_EQ(serial.num_fds, parallel.num_fds) << "seed " << seed;
    EXPECT_EQ(serial.total_nodes, parallel.total_nodes) << "seed " << seed;
  }
}

// ------------------------------------------------- fault-point paths

TEST(TaskGraphFaultTest, FailActionCancelsTheRunCleanly) {
  ScheduleGuard guard;
  Table t = GenFlightLike(300, 8, 5);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  // The safepoint sits in the level walk's node task, so the serial
  // walk honours it too.
  for (int threads : {1, 4}) {
    ASSERT_TRUE(fault::SetSchedule("task_graph.task:fail:4"));
    FastodOptions opt;
    opt.num_threads = threads;
    FastodResult r = Fastod(opt).Discover(*rel);
    EXPECT_TRUE(r.cancelled) << threads << " threads";
    EXPECT_GE(fault::Hits("task_graph.task"), 4) << threads << " threads";
  }
}

TEST(TaskGraphFaultTest, ThrowActionSurfacesAsFailedSession) {
  ScheduleGuard guard;
  DiscoveryService service(1);
  Result<SessionId> id = service.Create("fastod");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.LoadTable(*id, GenFlightLike(300, 8, 5)).ok());
  ASSERT_TRUE(service.SetOption(*id, "threads", "4").ok());
  ASSERT_TRUE(fault::SetSchedule("task_graph.task:throw:4"));
  ASSERT_TRUE(service.Submit(*id).ok());
  Result<SessionState> state = service.Wait(*id);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, SessionState::kFailed);
  Result<DiscoveryService::PollInfo> info = service.Poll(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->error_code, StatusCode::kInternal);
  EXPECT_NE(info->error.find("injected fault"), std::string::npos)
      << info->error;
  // The worker survived the throwing engine; the next run succeeds.
  fault::Clear();
  Result<SessionId> next = service.Create("fastod");
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(service.LoadTable(*next, EmployeeTaxTable()).ok());
  ASSERT_TRUE(service.Submit(*next).ok());
  Result<SessionState> next_state = service.Wait(*next);
  ASSERT_TRUE(next_state.ok());
  EXPECT_EQ(*next_state, SessionState::kDone);
}

// --------------------------------------- Submit racing pool shutdown

// Regression: a Submit() landing after Shutdown() began — while a
// multi-threaded task-graph session still runs on the only worker —
// must fail that session kUnavailable, not queue it forever (the
// pre-Shutdown service had no way to observe the stopped pool short of
// destruction).
TEST(TaskGraphShutdownTest, SubmitDuringShutdownFailsUnavailable) {
  DiscoveryService service(1);
  Result<SessionId> running = service.Create("fastod");
  ASSERT_TRUE(running.ok());
  // Big enough that the run comfortably spans the shutdown request.
  ASSERT_TRUE(service.LoadTable(*running, GenFlightLike(3000, 12, 9)).ok());
  ASSERT_TRUE(service.SetOption(*running, "threads", "4").ok());
  ASSERT_TRUE(service.Submit(*running).ok());

  std::thread stopper([&] { service.Shutdown(); });
  // Shutdown() marks the pool stopped immediately (then blocks on the
  // drain); poll until a probe submission observes the refusal.
  Status refused = Status::Ok();
  SessionId probe_id = -1;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    Result<SessionId> probe = service.Create("fastod");
    ASSERT_TRUE(probe.ok());
    probe_id = *probe;
    ASSERT_TRUE(service.LoadTable(probe_id, EmployeeTaxTable()).ok());
    refused = service.Submit(probe_id);
    if (!refused.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable)
      << refused.ToString();
  // The refused session is terminal-failed with the same code — a
  // Wait() on it returns instead of hanging.
  Result<DiscoveryService::PollInfo> info = service.Poll(probe_id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, SessionState::kFailed);
  EXPECT_EQ(info->error_code, StatusCode::kUnavailable);

  stopper.join();  // returns once the running session finished
  Result<SessionState> state = service.Wait(*running);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, SessionState::kDone);
}

}  // namespace
}  // namespace fastod
