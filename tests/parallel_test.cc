// Thread pool correctness and the parallel-discovery determinism
// guarantee: FASTOD output is bit-identical across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "algo/fastod.h"
#include "algo/tane.h"
#include "common/thread_pool.h"
#include "data/encode.h"
#include "gen/generators.h"
#include "gen/random_table.h"

namespace fastod {
namespace {

TEST(ThreadPoolTest, RunsEveryIterationExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(1000, [&](int64_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ZeroAndNegativeCountsAreNoOps) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](int64_t) { calls.fetch_add(1); });
  pool.ParallelFor(-5, [&](int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, SingleIterationWorks) {
  ThreadPool pool(8);
  std::atomic<int64_t> seen{-1};
  pool.ParallelFor(1, [&](int64_t i) { seen.store(i); });
  EXPECT_EQ(seen.load(), 0);
}

TEST(ThreadPoolTest, ReusableAcrossManyLoops) {
  ThreadPool pool(3);
  int64_t total = 0;
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(100, [&](int64_t i) { sum.fetch_add(i); });
    total += sum.load();
  }
  EXPECT_EQ(total, 50 * (99 * 100 / 2));
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.ParallelFor(257, [&](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 257);
}

// Regression for the worker boundary: a Submit task that throws must be
// contained there — the worker survives and keeps draining the queue
// (before the fix the exception unwound WorkerMain and std::thread
// called std::terminate).
TEST(ThreadPoolTest, ThrowingSubmitTaskDoesNotKillWorker) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);  // one worker: it must survive to run the rest
    EXPECT_TRUE(pool.Submit([] { throw std::runtime_error("boom"); }));
    EXPECT_TRUE(pool.Submit([&] { ran.fetch_add(1); }));
    EXPECT_TRUE(pool.Submit([] { throw 42; }));  // non-std exceptions too
    EXPECT_TRUE(pool.Submit([&] { ran.fetch_add(1); }));
  }  // ~ThreadPool drains the queue without terminate()
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolTest, QueueDrainsAfterThrowingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(pool.Submit([] { throw std::runtime_error("boom"); }));
      EXPECT_TRUE(pool.Submit([&] { ran.fetch_add(1); }));
    }
  }  // destructor runs every queued task
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolTest, UnevenWorkloadsFinish) {
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(64, [&](int64_t i) {
    // Skewed work: late iterations cost more.
    volatile int64_t x = 0;
    for (int64_t k = 0; k < i * 1000; ++k) x = x + 1;
    sum.fetch_add(1);
  });
  EXPECT_EQ(sum.load(), 64);
}

TEST(ThreadPoolTest, FirstBodyExceptionRethrownAfterDrain) {
  ThreadPool pool(3);
  // Park every worker in a task, so the caller claims every index in
  // order: index 0 throws, and no later body may run.
  std::atomic<int> parked{0};
  std::atomic<bool> release{false};
  for (int w = 0; w < pool.num_threads(); ++w) {
    ASSERT_TRUE(pool.Submit([&] {
      parked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    }));
  }
  while (parked.load() < pool.num_threads()) std::this_thread::yield();
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.ParallelFor(200,
                                [&](int64_t i) {
                                  if (i == 0) {
                                    throw std::runtime_error("body boom");
                                  }
                                  ran.fetch_add(1);
                                }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 0);
  release.store(true);

  // With the workers joining, a body's exception still reaches the
  // caller once the loop has drained.
  EXPECT_THROW(pool.ParallelFor(200,
                                [](int64_t i) {
                                  if (i == 100) throw std::logic_error("x");
                                }),
               std::logic_error);
  // The same pool then completes a normal loop and a submitted task.
  std::atomic<int> count{0};
  pool.ParallelFor(100, [&](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
  std::atomic<bool> submitted{false};
  ASSERT_TRUE(pool.Submit([&] { submitted.store(true); }));
  pool.Stop();  // drains the queue
  EXPECT_TRUE(submitted.load());
}

TEST(ThreadPoolTest, CurrentPartyDistinctAndBounded) {
  ThreadPool pool(3);
  const int parties = pool.num_threads() + 1;
  std::vector<std::atomic<int>> busy(parties);
  std::atomic<bool> ok{true};
  EXPECT_EQ(ThreadPool::CurrentParty(), 0);
  pool.ParallelFor(64, [&](int64_t) {
    const int party = ThreadPool::CurrentParty();
    if (party < 0 || party >= parties) {
      ok = false;
      return;
    }
    // Two bodies running at once never share a party.
    if (busy[party].fetch_add(1) != 0) ok = false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    busy[party].fetch_sub(1);
  });
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(ThreadPool::CurrentParty(), 0);
}

TEST(ThreadPoolTest, StoppedPoolParallelForRunsOnCaller) {
  // A pool whose workers are gone must degrade ParallelFor to running
  // every index on the calling thread, never block waiting for workers
  // that will not come.
  ThreadPool pool(2);
  pool.Stop();
  std::atomic<int> ran{0};
  std::atomic<bool> on_caller{true};
  pool.ParallelFor(50, [&](int64_t) {
    if (ThreadPool::CurrentParty() != 0) on_caller = false;
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 50);
  EXPECT_TRUE(on_caller.load());
}

struct ParallelParam {
  int threads;
  uint64_t seed;
};

// Named by its fields, so the test names ctest discovers are the same in
// every build (the default printer dumps the struct's bytes, padding
// included).
void PrintTo(const ParallelParam& p, std::ostream* os) {
  *os << "threads" << p.threads << "_seed" << p.seed;
}

class ParallelFastodTest : public ::testing::TestWithParam<ParallelParam> {};

TEST_P(ParallelFastodTest, OutputIdenticalToSerial) {
  Table t = GenRandomTable(60, 6, 4, GetParam().seed);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());

  FastodResult serial = Fastod().Discover(*rel);
  FastodOptions opt;
  opt.num_threads = GetParam().threads;
  FastodResult parallel = Fastod(opt).Discover(*rel);

  // Bit-identical, including order (merge is in node order).
  EXPECT_EQ(serial.constancy_ods, parallel.constancy_ods);
  EXPECT_EQ(serial.compatibility_ods, parallel.compatibility_ods);
  EXPECT_EQ(serial.num_constancy, parallel.num_constancy);
  EXPECT_EQ(serial.num_compatibility, parallel.num_compatibility);
  EXPECT_EQ(serial.total_nodes, parallel.total_nodes);
  EXPECT_EQ(serial.levels_processed, parallel.levels_processed);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndSeeds, ParallelFastodTest,
    ::testing::Values(ParallelParam{2, 1}, ParallelParam{4, 1},
                      ParallelParam{8, 1}, ParallelParam{2, 7},
                      ParallelParam{4, 7}, ParallelParam{3, 99},
                      ParallelParam{6, 12345}));

TEST(ParallelFastodTest, RealisticDatasetIdenticalAcrossThreads) {
  Table t = GenFlightLike(1500, 12, 42);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  FastodResult serial = Fastod().Discover(*rel);
  FastodOptions opt;
  opt.num_threads = 4;
  FastodResult parallel = Fastod(opt).Discover(*rel);
  EXPECT_EQ(serial.constancy_ods, parallel.constancy_ods);
  EXPECT_EQ(serial.compatibility_ods, parallel.compatibility_ods);
}

TEST(ParallelFastodTest, BidirectionalAndApproximateModesParallelize) {
  Table t = GenNcvoterLike(500, 10, 3);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  FastodOptions base;
  base.discover_bidirectional = true;
  base.max_error = 0.02;
  FastodResult serial = Fastod(base).Discover(*rel);
  FastodOptions par = base;
  par.num_threads = 4;
  FastodResult parallel = Fastod(par).Discover(*rel);
  EXPECT_EQ(serial.constancy_ods, parallel.constancy_ods);
  EXPECT_EQ(serial.compatibility_ods, parallel.compatibility_ods);
  EXPECT_EQ(serial.bidirectional_ods, parallel.bidirectional_ods);
}

TEST(ParallelTaneTest, OutputIdenticalToSerialAcrossThreadCounts) {
  Table t = GenFlightLike(800, 10, 11);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  TaneResult serial = Tane().Discover(*rel);
  for (int threads : {2, 4, 8}) {
    TaneOptions opt;
    opt.num_threads = threads;
    TaneResult parallel = Tane(opt).Discover(*rel);
    EXPECT_EQ(serial.fds, parallel.fds) << threads << " threads";
    EXPECT_EQ(serial.num_fds, parallel.num_fds);
    EXPECT_EQ(serial.total_nodes, parallel.total_nodes);
    EXPECT_EQ(serial.levels_processed, parallel.levels_processed);
    // One node task per lattice node.
    EXPECT_EQ(parallel.tasks_spawned, parallel.total_nodes);
  }
  EXPECT_EQ(serial.tasks_spawned, 0);
}

TEST(ParallelFastodTest, TaskCountersPopulatedInParallelRuns) {
  Table t = GenRandomTable(80, 6, 4, 3);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  FastodOptions opt;
  opt.num_threads = 4;
  FastodResult r = Fastod(opt).Discover(*rel);
  // Every lattice node ran exactly once as a task.
  EXPECT_EQ(r.tasks_spawned, r.total_nodes);
  EXPECT_GE(r.tasks_stolen, 0);
  EXPECT_LE(r.tasks_stolen, r.tasks_spawned);
  FastodResult serial = Fastod().Discover(*rel);
  EXPECT_EQ(serial.tasks_spawned, 0);
  EXPECT_EQ(serial.tasks_stolen, 0);
}

TEST(ParallelFastodTest, LevelStatsConsistent) {
  Table t = GenDbtesmaLike(400, 9, 5);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  FastodOptions opt;
  opt.num_threads = 4;
  FastodResult r = Fastod(opt).Discover(*rel);
  int64_t found = 0;
  for (const FastodLevelStats& s : r.level_stats) {
    found += s.constancy_found + s.compatibility_found +
             s.bidirectional_found;
  }
  EXPECT_EQ(found, r.NumOds());
}

TEST(ParallelFastodTest, LevelOccupancyReportedOnlyInParallelRuns) {
  Table t = GenDbtesmaLike(400, 9, 5);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  FastodOptions opt;
  opt.num_threads = 4;
  FastodResult r = Fastod(opt).Discover(*rel);
  ASSERT_GT(r.level_stats.size(), 1u);
  bool any_busy = false;
  for (const FastodLevelStats& s : r.level_stats) {
    EXPECT_GE(s.occupancy, 0.0) << "level " << s.level;
    EXPECT_LE(s.occupancy, 1.0) << "level " << s.level;
    if (s.occupancy > 0.0) any_busy = true;
  }
  EXPECT_TRUE(any_busy);
  FastodResult serial = Fastod().Discover(*rel);
  for (const FastodLevelStats& s : serial.level_stats) {
    EXPECT_EQ(s.occupancy, 0.0) << "level " << s.level;
  }
}

}  // namespace
}  // namespace fastod
