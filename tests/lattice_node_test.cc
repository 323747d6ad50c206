// The determinism guarantee of the lattice engines' parallel level walk,
// whose batches run on ThreadPool::ParallelFor, and its failure paths.
// (ParallelFor's own contract is unit-tested in tests/parallel_test.cc.)
//
// Three layers of coverage:
//
//  * level-walk basics — every node task runs exactly once, inline on
//    the caller when there is no pool, a reused engine gives the same
//    run each time, a throwing task surfaces from Discover() after the
//    batch drained, and pool workers take a share of the node tasks;
//  * scheduler stress — 50 seeds of random tables run under the
//    "lattice.node:sleep:1" latency fault, which perturbs task
//    completion order on every hit; output must stay bit-identical to
//    the serial baseline regardless of interleaving (the CI stress job
//    additionally runs this under TSan);
//  * fault points and shutdown — "fail" lands on the engine's
//    cancellation path, "throw" surfaces through the session as a
//    failed Status, and a service Submit() racing Shutdown() during a
//    live parallel run fails the session kUnavailable instead of
//    deadlocking.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "algo/fastod.h"
#include "algo/tane.h"
#include "common/fault.h"
#include "common/status.h"
#include "data/encode.h"
#include "gen/generators.h"
#include "gen/random_table.h"
#include "service/discovery_service.h"
#include "test_util.h"

namespace fastod {
namespace {

struct ScheduleGuard {
  ~ScheduleGuard() { fault::Clear(); }
};

// ------------------------------------------------ level-walk basics

// Counts hits at the node-task fault point without ever sleeping: a
// "sleep" schedule only stalls from hit N onward.
constexpr char kCountTasksOnly[] = "lattice.node:sleep:1000000000";

void ExpectSameOds(const FastodResult& a, const FastodResult& b) {
  EXPECT_EQ(a.constancy_ods, b.constancy_ods);
  EXPECT_EQ(a.compatibility_ods, b.compatibility_ods);
  EXPECT_EQ(a.total_nodes, b.total_nodes);
  EXPECT_EQ(a.levels_processed, b.levels_processed);
}

TEST(LatticeNodeTest, DrainsEverySeededTask) {
  ScheduleGuard guard;
  Table t = GenFlightLike(300, 8, 5);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  ASSERT_TRUE(fault::SetSchedule(kCountTasksOnly));
  FastodOptions opt;
  opt.num_threads = 4;
  FastodResult r = Fastod(opt).Discover(*rel);
  // One node task per lattice node, each run exactly once.
  EXPECT_GT(r.total_nodes, 0);
  EXPECT_EQ(fault::Hits("lattice.node"), r.total_nodes);
  EXPECT_EQ(r.tasks_spawned, r.total_nodes);
  EXPECT_GE(r.tasks_stolen, 0);
  EXPECT_LE(r.tasks_stolen, r.tasks_spawned);
  EXPECT_FALSE(r.cancelled);

  // TANE runs the same walk: the fault point sits in its node tasks only,
  // never in the derive tasks.
  fault::Clear();
  ASSERT_TRUE(fault::SetSchedule(kCountTasksOnly));
  TaneOptions tane_opt;
  tane_opt.num_threads = 4;
  TaneResult tane = Tane(tane_opt).Discover(*rel);
  EXPECT_GT(tane.total_nodes, 0);
  EXPECT_EQ(fault::Hits("lattice.node"), tane.total_nodes);
  EXPECT_EQ(tane.tasks_spawned, tane.total_nodes);
  EXPECT_FALSE(tane.cancelled);
}

TEST(LatticeNodeTest, NullPoolRunsInline) {
  ScheduleGuard guard;
  Table t = GenFlightLike(300, 8, 5);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  // A serial run builds no pool: every node task still runs, on the
  // calling thread, and no scheduling telemetry is recorded.
  ASSERT_TRUE(fault::SetSchedule(kCountTasksOnly));
  FastodResult serial = Fastod().Discover(*rel);
  EXPECT_EQ(fault::Hits("lattice.node"), serial.total_nodes);
  EXPECT_EQ(serial.tasks_spawned, 0);
  EXPECT_EQ(serial.tasks_stolen, 0);
  for (const FastodLevelStats& level : serial.level_stats) {
    EXPECT_EQ(level.occupancy, 0.0) << "level " << level.level;
  }

  ASSERT_TRUE(fault::SetSchedule(kCountTasksOnly));
  TaneResult tane_serial = Tane().Discover(*rel);
  EXPECT_EQ(fault::Hits("lattice.node"), tane_serial.total_nodes);
  EXPECT_EQ(tane_serial.tasks_spawned, 0);
  EXPECT_EQ(tane_serial.tasks_stolen, 0);

  fault::Clear();
  FastodOptions opt;
  opt.num_threads = 4;
  ExpectSameOds(serial, Fastod(opt).Discover(*rel));
}

TEST(LatticeNodeTest, ReusableAcrossSequentialRuns) {
  Table t = GenFlightLike(300, 8, 5);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  FastodResult serial = Fastod().Discover(*rel);
  // One engine object, many runs: each Discover() owns its pool and
  // per-run state, so repeated runs neither leak state nor drift.
  FastodOptions opt;
  opt.num_threads = 3;
  const Fastod engine(opt);
  for (int round = 0; round < 10; ++round) {
    FastodResult r = engine.Discover(*rel);
    ExpectSameOds(serial, r);
    EXPECT_EQ(r.tasks_spawned, r.total_nodes) << "round " << round;
  }
}

TEST(LatticeNodeTest, FirstExceptionRethrownAfterDrain) {
  ScheduleGuard guard;
  Table t = GenFlightLike(300, 8, 5);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  FastodResult serial = Fastod().Discover(*rel);
  TaneResult tane_serial = Tane().Discover(*rel);

  // A node task throwing on a pool worker or the caller reaches the
  // Discover() caller once its batch drained.
  FastodOptions opt;
  opt.num_threads = 4;
  const Fastod fastod(opt);
  ASSERT_TRUE(fault::SetSchedule("lattice.node:throw:4"));
  EXPECT_THROW(fastod.Discover(*rel), fault::FaultInjected);
  EXPECT_GE(fault::Hits("lattice.node"), 4);

  TaneOptions tane_opt;
  tane_opt.num_threads = 4;
  const Tane tane(tane_opt);
  ASSERT_TRUE(fault::SetSchedule("lattice.node:throw:4"));
  EXPECT_THROW(tane.Discover(*rel), fault::FaultInjected);

  // The same engines then complete normal runs.
  fault::Clear();
  ExpectSameOds(serial, fastod.Discover(*rel));
  TaneResult tane_after = tane.Discover(*rel);
  EXPECT_EQ(tane_serial.fds, tane_after.fds);
  EXPECT_EQ(tane_serial.num_fds, tane_after.num_fds);
}

TEST(LatticeNodeTest, StealsHappenUnderSkewedLoad) {
  ScheduleGuard guard;
  Table t = GenFlightLike(300, 8, 5);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  FastodResult serial = Fastod().Discover(*rel);
  // Every node task stalls for a different sub-millisecond time, so a
  // level takes far longer than a worker needs to wake: the workers
  // must claim node tasks alongside the caller, and every task still
  // runs exactly once.
  ASSERT_TRUE(fault::SetSchedule("lattice.node:sleep:1"));
  FastodOptions opt;
  opt.num_threads = 4;
  FastodResult r = Fastod(opt).Discover(*rel);
  EXPECT_EQ(fault::Hits("lattice.node"), r.total_nodes);
  EXPECT_EQ(r.tasks_spawned, r.total_nodes);
  EXPECT_GT(r.tasks_stolen, 0);
  EXPECT_LE(r.tasks_stolen, r.tasks_spawned);
  ExpectSameOds(serial, r);
}

// ------------------------------------------- randomized stress (50x)

// Latency injection at the per-task fault point scrambles completion
// order; the canonical-order merge must make the scramble invisible.
// Runs under TSan in the CI stress job, which also makes this the
// scheduler's data-race certification.
TEST(LatticeNodeStressTest, FiftySeedsDeterministicUnderRandomLatency) {
  ScheduleGuard guard;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Table t = GenRandomTable(30, 5, 3, seed);
    auto rel = EncodedRelation::FromTable(t);
    ASSERT_TRUE(rel.ok());
    fault::Clear();
    FastodResult serial = Fastod().Discover(*rel);

    // Sleep from the first hit onward: every task gets a
    // deterministic-per-hit but schedule-shuffling delay.
    ASSERT_TRUE(fault::SetSchedule("lattice.node:sleep:1"));
    FastodOptions opt;
    opt.num_threads = 1 + static_cast<int>(seed % 4) + 1;  // 2..5
    FastodResult parallel = Fastod(opt).Discover(*rel);
    EXPECT_GT(fault::Hits("lattice.node"), 0) << "seed " << seed;

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

TEST(LatticeNodeStressTest, TaneDeterministicUnderRandomLatency) {
  ScheduleGuard guard;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Table t = GenRandomTable(40, 6, 4, seed * 17);
    auto rel = EncodedRelation::FromTable(t);
    ASSERT_TRUE(rel.ok());
    fault::Clear();
    TaneResult serial = Tane().Discover(*rel);

    ASSERT_TRUE(fault::SetSchedule("lattice.node:sleep:1"));
    TaneOptions opt;
    opt.num_threads = 4;
    TaneResult parallel = Tane(opt).Discover(*rel);
    EXPECT_GT(fault::Hits("lattice.node"), 0) << "seed " << seed;

    EXPECT_EQ(serial.fds, parallel.fds) << "seed " << seed;
    EXPECT_EQ(serial.num_fds, parallel.num_fds) << "seed " << seed;
    EXPECT_EQ(serial.total_nodes, parallel.total_nodes) << "seed " << seed;
  }
}

// ------------------------------------------------- fault-point paths

TEST(LatticeNodeFaultTest, FailActionCancelsTheRunCleanly) {
  ScheduleGuard guard;
  Table t = GenFlightLike(300, 8, 5);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  // The safepoint sits in the level walk's node task, so the serial
  // walk honours it too.
  for (int threads : {1, 4}) {
    ASSERT_TRUE(fault::SetSchedule("lattice.node:fail:4"));
    FastodOptions opt;
    opt.num_threads = threads;
    FastodResult r = Fastod(opt).Discover(*rel);
    EXPECT_TRUE(r.cancelled) << threads << " threads";
    EXPECT_GE(fault::Hits("lattice.node"), 4) << threads << " threads";
  }
}

TEST(LatticeNodeFaultTest, ThrowActionSurfacesAsFailedSession) {
  ScheduleGuard guard;
  DiscoveryService service(1);
  Result<SessionId> id = service.Create("fastod");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(
      service.BindDataset(*id, DatasetOf(GenFlightLike(300, 8, 5))).ok());
  ASSERT_TRUE(service.SetOption(*id, "threads", "4").ok());
  ASSERT_TRUE(fault::SetSchedule("lattice.node:throw:4"));
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
  ASSERT_TRUE(service.BindDataset(*next, DatasetOf(EmployeeTaxTable())).ok());
  ASSERT_TRUE(service.Submit(*next).ok());
  Result<SessionState> next_state = service.Wait(*next);
  ASSERT_TRUE(next_state.ok());
  EXPECT_EQ(*next_state, SessionState::kDone);
}

// --------------------------------------- Submit racing pool shutdown

// Regression: a Submit() landing after Shutdown() began — while a
// multi-threaded session still runs on the only worker —
// must fail that session kUnavailable, not queue it forever (the
// pre-Shutdown service had no way to observe the stopped pool short of
// destruction).
TEST(ThreadPoolShutdownTest, SubmitDuringShutdownFailsUnavailable) {
  DiscoveryService service(1);
  Result<SessionId> running = service.Create("fastod");
  ASSERT_TRUE(running.ok());
  // Big enough that the run comfortably spans the shutdown request.
  ASSERT_TRUE(service
                  .BindDataset(*running,
                               DatasetOf(GenFlightLike(3000, 12, 9)))
                  .ok());
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
    ASSERT_TRUE(
        service.BindDataset(probe_id, DatasetOf(EmployeeTaxTable())).ok());
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
