// Tests for the service layer (src/service/): session state machine,
// DiscoveryService scheduling on the shared thread pool, cancellation of
// queued and running sessions, shared sinks through MutexOdSink, and —
// the acceptance bar — that concurrent mixed-algorithm sessions produce
// bit-for-bit the results of sequential single-session runs even while
// another session is cancelled mid-flight.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "api/engines.h"
#include "api/od_sink.h"
#include "api/registry.h"
#include "common/json.h"
#include "data/encode.h"
#include "gen/generators.h"
#include "gen/random_table.h"
#include "service/discovery_service.h"
#include "test_util.h"

namespace fastod {
namespace {

Table WideFlight() { return GenFlightLike(400, 10, 7); }

// ------------------------------------------------------------- session

TEST(DiscoverySessionTest, LifecycleStates) {
  auto algo = AlgorithmRegistry::Default().Create("fastod");
  ASSERT_TRUE(algo.ok());
  DiscoverySession session(std::move(algo).value());
  EXPECT_EQ(session.state(), SessionState::kCreated);
  EXPECT_FALSE(IsTerminal(session.state()));

  ASSERT_TRUE(session.BindDataset(DatasetOf(EmployeeTaxTable())).ok());
  ASSERT_TRUE(session.MarkQueued().ok());
  EXPECT_EQ(session.state(), SessionState::kQueued);

  session.Run();
  EXPECT_EQ(session.state(), SessionState::kDone);
  EXPECT_TRUE(IsTerminal(session.state()));
  EXPECT_NE(session.result_json().find("\"algorithm\": \"fastod\""),
            std::string::npos);
  EXPECT_NE(session.result_text().find("FASTOD"), std::string::npos);
  EXPECT_DOUBLE_EQ(session.progress(), 1.0);
}

TEST(DiscoverySessionTest, SubmitWithoutDataFails) {
  auto algo = AlgorithmRegistry::Default().Create("fastod");
  ASSERT_TRUE(algo.ok());
  DiscoverySession session(std::move(algo).value());
  Status s = session.MarkQueued();
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("no data"), std::string::npos);
}

TEST(DiscoverySessionTest, ConfigurationFrozenAfterQueueing) {
  auto algo = AlgorithmRegistry::Default().Create("fastod");
  ASSERT_TRUE(algo.ok());
  DiscoverySession session(std::move(algo).value());
  ASSERT_TRUE(session.BindDataset(DatasetOf(EmployeeTaxTable())).ok());
  ASSERT_TRUE(session.SetOption("threads", "2").ok());
  ASSERT_TRUE(session.MarkQueued().ok());
  EXPECT_EQ(session.SetOption("threads", "4").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.BindDataset(DatasetOf(EmployeeTaxTable())).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.MarkQueued().code(), StatusCode::kFailedPrecondition);
}

TEST(DiscoverySessionTest, CancelBeforeQueueIsTerminal) {
  auto algo = AlgorithmRegistry::Default().Create("fastod");
  ASSERT_TRUE(algo.ok());
  DiscoverySession session(std::move(algo).value());
  session.RequestCancel();
  EXPECT_EQ(session.state(), SessionState::kCancelled);
}

TEST(DiscoverySessionTest, StateNames) {
  EXPECT_STREQ(SessionStateName(SessionState::kCreated), "created");
  EXPECT_STREQ(SessionStateName(SessionState::kQueued), "queued");
  EXPECT_STREQ(SessionStateName(SessionState::kRunning), "running");
  EXPECT_STREQ(SessionStateName(SessionState::kDone), "done");
  EXPECT_STREQ(SessionStateName(SessionState::kFailed), "failed");
  EXPECT_STREQ(SessionStateName(SessionState::kCancelled), "cancelled");
}

// ------------------------------------------------------------- service

TEST(DiscoveryServiceTest, UnknownAlgorithmListsRegistered) {
  DiscoveryService service(2);
  auto id = service.Create("magic");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kNotFound);
  EXPECT_NE(id.status().message().find("fastod"), std::string::npos);
}

TEST(DiscoveryServiceTest, StaleHandleIsNotFound) {
  DiscoveryService service(2);
  EXPECT_EQ(service.SetOption(99, "threads", "1").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Submit(99).code(), StatusCode::kNotFound);
  EXPECT_FALSE(service.Poll(99).ok());
  EXPECT_EQ(service.Cancel(99).code(), StatusCode::kNotFound);
  EXPECT_FALSE(service.Wait(99).ok());
  EXPECT_EQ(service.Destroy(99).code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Find(99), nullptr);
}

TEST(DiscoveryServiceTest, SubmitPollCollectRoundTrip) {
  DiscoveryService service(2);
  auto id = service.Create("fastod");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(service.num_sessions(), 1);
  // Results before terminal are a precondition failure, not garbage.
  ASSERT_TRUE(service.BindDataset(*id, DatasetOf(EmployeeTaxTable())).ok());
  EXPECT_EQ(service.ResultJson(*id).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service.Submit(*id).ok());
  auto state = service.Wait(*id);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, SessionState::kDone);
  auto poll = service.Poll(*id);
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll->state, SessionState::kDone);
  EXPECT_DOUBLE_EQ(poll->progress, 1.0);
  EXPECT_TRUE(poll->error.empty());
  auto json = service.ResultJson(*id);
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("\"algorithm\": \"fastod\""), std::string::npos);
  ASSERT_TRUE(service.Destroy(*id).ok());
  EXPECT_EQ(service.num_sessions(), 0);
}

TEST(DiscoveryServiceTest, DoubleSubmitRejected) {
  DiscoveryService service(2);
  auto id = service.Create("fastod");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.BindDataset(*id, DatasetOf(EmployeeTaxTable())).ok());
  ASSERT_TRUE(service.Submit(*id).ok());
  EXPECT_EQ(service.Submit(*id).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service.Wait(*id).ok());
}

TEST(DiscoveryServiceTest, DeferredCsvErrorSurfacesInPoll) {
  DiscoveryService service(2);
  auto id = service.Create("fastod");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.SubmitCsv(*id, "/no/such/file.csv").ok());
  auto state = service.Wait(*id);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, SessionState::kFailed);
  auto poll = service.Poll(*id);
  ASSERT_TRUE(poll.ok());
  EXPECT_NE(poll->error.find("/no/such/file.csv"), std::string::npos);
  // kFailed is terminal, so results are reachable but empty.
  auto json = service.ResultJson(*id);
  ASSERT_TRUE(json.ok());
  EXPECT_TRUE(json->empty());
}

TEST(DiscoveryServiceTest, DeferredCsvRunsAndMatchesEagerLoad) {
  std::string path = ::testing::TempDir() + "/service_test_deferred.csv";
  ASSERT_TRUE(WriteCsvFile(EmployeeTaxTable(), path).ok());
  DiscoveryService service(2);
  auto deferred = service.Create("fastod");
  auto eager = service.Create("fastod");
  ASSERT_TRUE(deferred.ok());
  ASSERT_TRUE(eager.ok());
  ASSERT_TRUE(service.SubmitCsv(*deferred, path).ok());
  auto loaded = LoadedDataset::LoadCsvFile("eager", path, CsvOptions());
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(service.BindDataset(*eager, *loaded).ok());
  ASSERT_TRUE(service.Submit(*eager).ok());
  service.WaitAll();
  auto a = service.ResultJson(*deferred);
  auto b = service.ResultJson(*eager);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(a->empty());
  // Identical input and configuration: byte-identical reports except the
  // wall-clock line.
  EXPECT_EQ(a->substr(a->find("\"constancy_ods\"")),
            b->substr(b->find("\"constancy_ods\"")));
  std::remove(path.c_str());
}

// A deterministic concurrency probe: each sleeper blocks until `expected`
// algorithms run simultaneously, so the test fails (by timeout fallback)
// if the pool cannot actually overlap that many sessions.
class SleeperAlgorithm : public Algorithm {
 public:
  struct Rendezvous {
    std::mutex mutex;
    std::condition_variable cv;
    int arrived = 0;
    int peak = 0;
    bool released = false;

    void Release() {
      {
        std::lock_guard<std::mutex> lock(mutex);
        released = true;
      }
      cv.notify_all();
    }
  };

  SleeperAlgorithm(Rendezvous* rendezvous, int expected)
      : Algorithm("sleeper", "test-only rendezvous algorithm"),
        rendezvous_(rendezvous),
        expected_(expected) {}

  std::string ResultText() const override { return "sleeper\n"; }
  std::string ResultJson() const override {
    return "{\"algorithm\": \"sleeper\"}\n";
  }

 protected:
  Status ExecuteInternal() override {
    std::unique_lock<std::mutex> lock(rendezvous_->mutex);
    ++rendezvous_->arrived;
    rendezvous_->peak = std::max(rendezvous_->peak, rendezvous_->arrived);
    rendezvous_->cv.notify_all();
    // The 30s bound turns a pool that cannot overlap `expected` sessions
    // into a slow test failure rather than a hang.
    rendezvous_->cv.wait_for(lock, std::chrono::seconds(30), [&] {
      return rendezvous_->peak >= expected_ || rendezvous_->released;
    });
    --rendezvous_->arrived;
    return Status::Ok();
  }

 private:
  Rendezvous* rendezvous_;
  int expected_;
};

TEST(DiscoveryServiceTest, PoolOverlapsFourSessions) {
  AlgorithmRegistry registry;
  SleeperAlgorithm::Rendezvous rendezvous;
  registry.Register("sleeper", [&rendezvous] {
    return std::unique_ptr<Algorithm>(
        new SleeperAlgorithm(&rendezvous, 4));
  });
  DiscoveryService service(4, &registry);
  std::vector<SessionId> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = service.Create("sleeper");
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(service.BindDataset(*id, DatasetOf(EmployeeTaxTable())).ok());
    ASSERT_TRUE(service.Submit(*id).ok());
    ids.push_back(*id);
  }
  service.WaitAll();
  EXPECT_EQ(rendezvous.peak, 4);
  for (SessionId id : ids) {
    EXPECT_EQ(service.Poll(id)->state, SessionState::kDone);
  }
}

TEST(DiscoveryServiceTest, QueuedSessionsWaitForFreeWorkers) {
  // One worker: the second session must stay queued until the first
  // finishes, then run — submission order is execution order.
  DiscoveryService service(1);
  auto first = service.Create("fastod");
  auto second = service.Create("tane");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(service.BindDataset(*first, DatasetOf(WideFlight())).ok());
  ASSERT_TRUE(service.BindDataset(*second, DatasetOf(EmployeeTaxTable())).ok());
  ASSERT_TRUE(service.Submit(*first).ok());
  ASSERT_TRUE(service.Submit(*second).ok());
  service.WaitAll();
  EXPECT_EQ(service.Poll(*first)->state, SessionState::kDone);
  EXPECT_EQ(service.Poll(*second)->state, SessionState::kDone);
}

TEST(DiscoveryServiceTest, CancelQueuedSessionSkipsRun) {
  AlgorithmRegistry registry;
  RegisterBuiltinAlgorithms(&registry);
  SleeperAlgorithm::Rendezvous rendezvous;
  // expected=2 never arrives (one sleeper): the blocker holds the only
  // worker until the test releases it after cancelling the queued job.
  registry.Register("sleeper", [&rendezvous] {
    return std::unique_ptr<Algorithm>(
        new SleeperAlgorithm(&rendezvous, 2));
  });
  DiscoveryService service(1, &registry);
  auto blocker = service.Create("sleeper");
  auto queued = service.Create("fastod");
  ASSERT_TRUE(blocker.ok());
  ASSERT_TRUE(queued.ok());
  ASSERT_TRUE(
      service.BindDataset(*blocker, DatasetOf(EmployeeTaxTable())).ok());
  ASSERT_TRUE(service.BindDataset(*queued, DatasetOf(EmployeeTaxTable())).ok());
  ASSERT_TRUE(service.Submit(*blocker).ok());
  ASSERT_TRUE(service.Submit(*queued).ok());
  ASSERT_TRUE(service.Cancel(*queued).ok());
  rendezvous.Release();
  service.WaitAll();
  EXPECT_EQ(service.Poll(*blocker)->state, SessionState::kDone);
  auto poll = service.Poll(*queued);
  EXPECT_EQ(poll->state, SessionState::kCancelled);
  // The run never happened, so there is no result.
  EXPECT_TRUE(service.ResultJson(*queued)->empty());
}

TEST(DiscoveryServiceTest, SecondSubmitCsvCannotRedirectPendingRun) {
  std::string good = ::testing::TempDir() + "/service_test_good.csv";
  ASSERT_TRUE(WriteCsvFile(EmployeeTaxTable(), good).ok());
  AlgorithmRegistry registry;
  RegisterBuiltinAlgorithms(&registry);
  SleeperAlgorithm::Rendezvous rendezvous;
  registry.Register("sleeper", [&rendezvous] {
    return std::unique_ptr<Algorithm>(new SleeperAlgorithm(&rendezvous, 2));
  });
  DiscoveryService service(1, &registry);
  auto blocker = service.Create("sleeper");
  auto id = service.Create("fastod");
  ASSERT_TRUE(blocker.ok());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(
      service.BindDataset(*blocker, DatasetOf(EmployeeTaxTable())).ok());
  ASSERT_TRUE(service.Submit(*blocker).ok());
  ASSERT_TRUE(service.SubmitCsv(*id, good).ok());
  // While the first submission is still queued behind the blocker, a
  // second SubmitCsv must fail without swapping the deferred source.
  EXPECT_EQ(service.SubmitCsv(*id, "/wrong/data.csv").code(),
            StatusCode::kFailedPrecondition);
  rendezvous.Release();
  service.WaitAll();
  EXPECT_EQ(service.Poll(*id)->state, SessionState::kDone);
  EXPECT_NE(service.ResultJson(*id)->find("\"algorithm\": \"fastod\""),
            std::string::npos);
  std::remove(good.c_str());
}

TEST(DiscoveryServiceTest, SharedSinkSerializedAcrossSessions) {
  CountingOdSink shared;
  DiscoveryService service(4);
  service.SetSharedSink(&shared);
  std::vector<SessionId> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = service.Create("fastod");
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(service.BindDataset(*id, DatasetOf(EmployeeTaxTable())).ok());
    ASSERT_TRUE(service.Submit(*id).ok());
    ids.push_back(*id);
  }
  service.WaitAll();
  // Sequential single-session baseline.
  CollectingOdSink baseline;
  FastodAlgorithm algo;
  algo.SetSink(&baseline);
  ASSERT_TRUE(algo.BindDataset(DatasetOf(EmployeeTaxTable())).ok());
  ASSERT_TRUE(algo.Execute().ok());
  EXPECT_EQ(shared.Total(), 4 * baseline.TotalOds());
  EXPECT_GT(shared.Total(), 0);
}

// ------------------------------ acceptance: concurrent mixed batch

struct SequentialBaseline {
  CollectingOdSink sink;
  std::string algorithm;
  std::vector<std::pair<std::string, std::string>> options;
  Table table;
};

// The ISSUE acceptance bar: >= 4 concurrent sessions of mixed algorithms,
// one more cancelled mid-flight; every surviving session's streamed
// output is bit-for-bit the sequential single-session run's.
TEST(DiscoveryServiceTest, ConcurrentMixedBatchMatchesSequentialRuns) {
  Table employee = EmployeeTaxTable();
  Table flight = WideFlight();
  Table ncvoter = GenNcvoterLike(300, 8, 11);

  std::vector<SequentialBaseline> jobs;
  jobs.push_back({{}, "fastod", {{"bidirectional", "true"}}, employee});
  jobs.push_back({{}, "tane", {}, flight});
  // ORDER on the employee table (ncvoter-like data is swap-heavy and its
  // incomplete pruning would find nothing to compare).
  jobs.push_back({{}, "order", {{"max-level", "3"}}, employee});
  jobs.push_back({{}, "approximate", {{"max-error", "0.2"}}, employee});
  jobs.push_back({{}, "fastod", {{"threads", "2"}}, ncvoter});

  // Sequential single-session baselines first.
  for (SequentialBaseline& job : jobs) {
    auto algo = AlgorithmRegistry::Default().Create(job.algorithm);
    ASSERT_TRUE(algo.ok());
    for (const auto& [name, value] : job.options) {
      ASSERT_TRUE((*algo)->SetOption(name, value).ok());
    }
    (*algo)->SetSink(&job.sink);
    ASSERT_TRUE((*algo)->BindDataset(DatasetOf(job.table)).ok());
    ASSERT_TRUE((*algo)->Execute().ok());
    ASSERT_GT(job.sink.TotalOds(), 0) << job.algorithm;
  }

  // Now the same five jobs concurrently, plus a sixth session on an
  // exhaustive-ORDER workload that cannot finish quickly; it is
  // cancelled as soon as it reports running.
  DiscoveryService service(6);
  std::vector<SessionId> ids;
  std::vector<std::unique_ptr<CollectingOdSink>> sinks;
  auto victim = service.Create("order");
  ASSERT_TRUE(victim.ok());
  // Exhaustive list lattice over 10 attributes: factorially far from
  // terminating, with fast early level boundaries for the cancel to hit;
  // the timeout is a test-failure backstop, not the expected exit.
  ASSERT_TRUE(service.SetOption(*victim, "timeout-ms", "120000").ok());
  ASSERT_TRUE(service.BindDataset(*victim, DatasetOf(flight)).ok());
  ASSERT_TRUE(service.Submit(*victim).ok());

  for (SequentialBaseline& job : jobs) {
    auto id = service.Create(job.algorithm);
    ASSERT_TRUE(id.ok());
    for (const auto& [name, value] : job.options) {
      ASSERT_TRUE(service.SetOption(*id, name, value).ok());
    }
    sinks.push_back(std::make_unique<CollectingOdSink>());
    ASSERT_TRUE(service.SetSink(*id, sinks.back().get()).ok());
    ASSERT_TRUE(service.BindDataset(*id, DatasetOf(job.table)).ok());
    ASSERT_TRUE(service.Submit(*id).ok());
    ids.push_back(*id);
  }

  // Cancel the victim as soon as it is actually executing (mid-flight,
  // not pre-queued): the engine honors it at its next level boundary.
  while (service.Poll(*victim)->state == SessionState::kQueued) {
    std::this_thread::yield();
  }
  EXPECT_EQ(service.Poll(*victim)->state, SessionState::kRunning);
  ASSERT_TRUE(service.Cancel(*victim).ok());
  service.WaitAll();

  auto victim_state = service.Poll(*victim)->state;
  EXPECT_EQ(victim_state, SessionState::kCancelled);

  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_EQ(service.Poll(ids[i])->state, SessionState::kDone)
        << jobs[i].algorithm;
    const CollectingOdSink& concurrent = *sinks[i];
    const CollectingOdSink& sequential = jobs[i].sink;
    EXPECT_EQ(concurrent.constancy_ods(), sequential.constancy_ods())
        << jobs[i].algorithm;
    EXPECT_EQ(concurrent.compatibility_ods(),
              sequential.compatibility_ods())
        << jobs[i].algorithm;
    EXPECT_EQ(concurrent.bidirectional_ods(),
              sequential.bidirectional_ods())
        << jobs[i].algorithm;
    EXPECT_EQ(concurrent.list_ods(), sequential.list_ods())
        << jobs[i].algorithm;
    EXPECT_EQ(concurrent.TotalOds(), sequential.TotalOds())
        << jobs[i].algorithm;
  }
}

// ---------------------------------- exception containment (regression)

class ThrowingAlgorithm : public Algorithm {
 public:
  ThrowingAlgorithm()
      : Algorithm("throwing", "test-only engine that throws") {}
  std::string ResultText() const override { return ""; }
  std::string ResultJson() const override { return ""; }

 protected:
  Status ExecuteInternal() override {
    throw std::runtime_error("kaboom at level 3");
  }
};

// A throwing engine must end the session kFailed with the exception's
// message in its Status — and must not take down the worker: the next
// session on the same (single-worker) pool completes normally.
TEST(DiscoveryServiceTest, ThrowingSessionFailsWithoutKillingPool) {
  AlgorithmRegistry registry;
  RegisterBuiltinAlgorithms(&registry);
  registry.Register("throwing", [] {
    return std::unique_ptr<Algorithm>(new ThrowingAlgorithm());
  });
  DiscoveryService service(1, &registry);

  auto bad = service.Create("throwing");
  ASSERT_TRUE(bad.ok());
  ASSERT_TRUE(service.BindDataset(*bad, DatasetOf(EmployeeTaxTable())).ok());
  ASSERT_TRUE(service.Submit(*bad).ok());
  auto state = service.Wait(*bad);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, SessionState::kFailed);
  auto poll = service.Poll(*bad);
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll->state, SessionState::kFailed);
  EXPECT_NE(poll->error.find("kaboom at level 3"), std::string::npos);
  EXPECT_NE(poll->error.find("Internal"), std::string::npos);

  // The single worker survived the throw: a healthy session completes.
  auto good = service.Create("fastod");
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(service.BindDataset(*good, DatasetOf(EmployeeTaxTable())).ok());
  ASSERT_TRUE(service.Submit(*good).ok());
  auto good_state = service.Wait(*good);
  ASSERT_TRUE(good_state.ok());
  EXPECT_EQ(*good_state, SessionState::kDone);
  EXPECT_FALSE(service.ResultJson(*good)->empty());
}

TEST(DiscoveryServiceTest, DestroyRunningSessionIsSafe) {
  DiscoveryService service(2);
  auto id = service.Create("order");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.SetOption(*id, "timeout-ms", "120000").ok());
  ASSERT_TRUE(service.BindDataset(*id, DatasetOf(WideFlight())).ok());
  ASSERT_TRUE(service.Submit(*id).ok());
  // Destroy while queued or running: the handle dies now, the worker
  // winds down on its own (service destruction below waits for it).
  ASSERT_TRUE(service.Destroy(*id).ok());
  EXPECT_EQ(service.Find(*id), nullptr);
  EXPECT_EQ(service.num_sessions(), 0);
}

TEST(DiscoveryServiceTest, DestructorCancelsLiveSessions) {
  auto service = std::make_unique<DiscoveryService>(2);
  auto id = service->Create("order");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service->SetOption(*id, "timeout-ms", "120000").ok());
  ASSERT_TRUE(service->BindDataset(*id, DatasetOf(WideFlight())).ok());
  ASSERT_TRUE(service->Submit(*id).ok());
  // Must return promptly (cancel at the next level boundary), not after
  // the 120s timeout backstop.
  service.reset();
  SUCCEED();
}

// Every registered engine honours a cancel that arrives mid-run: the
// session turns kCancelled within a bounded time, and the engine's own
// report says it stopped early. Uncancelled, each input keeps its engine
// busy for seconds.
TEST(DiscoveryServiceTest, CancelStopsEveryEngineMidRun) {
  const Table lattice = GenHepatitisLike(500, 20, 3);  // ~180k nodes
  const Table oracle = GenHepatitisLike(200, 10, 3);   // 2^10 contexts, n^2
  const Table rows = GenRandomTable(50000, 16, 4, 3);  // 360 candidates
  // The complete result for the one-row prefix ({}: [] -> A for every A).
  // The appended rows break all of it, so the incremental engine
  // re-searches the lattice.
  auto prior_engine = AlgorithmRegistry::Default().Create("fastod");
  ASSERT_TRUE(prior_engine.ok());
  ASSERT_TRUE((*prior_engine)->BindDataset(DatasetOf(lattice.Head(1))).ok());
  ASSERT_TRUE((*prior_engine)->Execute().ok());
  const std::string prior = (*prior_engine)->ResultJson();

  struct Case {
    const char* algorithm;
    const Table* table;
    std::map<std::string, std::string> options;
  };
  const std::vector<Case> cases = {
      {"fastod", &lattice, {}},
      {"tane", &lattice, {}},
      {"order", &lattice, {}},
      {"approximate", &lattice, {}},
      {"brute-force", &oracle, {}},
      {"conditional", &rows, {}},
      {"incremental", &lattice, {{"prior", prior}, {"base-rows", "1"}}},
  };
  DiscoveryService service(1);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.algorithm);
    auto id = service.Create(c.algorithm);
    ASSERT_TRUE(id.ok());
    for (const auto& [name, value] : c.options) {
      ASSERT_TRUE(service.SetOption(*id, name, value).ok());
    }
    ASSERT_TRUE(service.BindDataset(*id, DatasetOf(*c.table)).ok());
    ASSERT_TRUE(service.Submit(*id).ok());
    for (SessionState state = service.Poll(*id)->state;
         state != SessionState::kRunning; state = service.Poll(*id)->state) {
      ASSERT_FALSE(IsTerminal(state)) << SessionStateName(state);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto cancelled_at = std::chrono::steady_clock::now();
    ASSERT_TRUE(service.Cancel(*id).ok());
    ASSERT_TRUE(service.Wait(*id).ok());
    const std::chrono::duration<double> waited =
        std::chrono::steady_clock::now() - cancelled_at;
    EXPECT_EQ(service.Poll(*id)->state, SessionState::kCancelled);
    EXPECT_LT(waited.count(), 10.0);
    Result<JsonValue> report = ParseJson(*service.ResultJson(*id));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const JsonValue* stats = report->Find("stats");
    ASSERT_NE(stats, nullptr);
    ASSERT_NE(stats->Find("cancelled"), nullptr);
    EXPECT_TRUE(stats->Find("cancelled")->bool_value()) << stats->Dump();
    ASSERT_TRUE(service.Destroy(*id).ok());
  }
}

// ORDER polls the stop before every lattice node, not only between
// levels, so timeout-ms lands inside a long level. Level 1 has no
// candidates and ends at once; level 2 of a 100k-row table runs 132
// candidate checks, each a scan over all rows: seconds of work in one
// level, so the 300 ms deadline falls inside it on any build. ORDER
// reports progress l/m only after finishing level l, so a run that
// stopped inside level 2 never reports 2/12; one that polled only
// between levels would finish level 2 first and report it.
TEST(DiscoveryServiceTest, OrderDeadlineStopsInsideALevel) {
  DiscoveryService service(1);
  auto id = service.Create("order");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(
      service.BindDataset(*id, DatasetOf(GenFlightLike(100000, 12, 3))).ok());
  ASSERT_TRUE(service.SetOption(*id, "max-level", "2").ok());
  ASSERT_TRUE(service.SetOption(*id, "timeout-ms", "300").ok());
  ASSERT_TRUE(service.Submit(*id).ok());
  ASSERT_TRUE(service.Wait(*id).ok());
  Result<DiscoveryService::PollInfo> info = service.Poll(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, SessionState::kFailed);
  EXPECT_EQ(info->error_code, StatusCode::kDeadlineExceeded) << info->error;
  EXPECT_LT(info->progress, 2.0 / 12);
}

// ------------------------------------------------- shared datasets


// Load-once/discover-many acceptance: two sessions bound to one stored
// dataset must produce bit-for-bit the results of two independent CSV
// sessions, while the CSV is parsed exactly once — proved by deleting
// the file after the upload, so any re-parse attempt would fail the
// session.
TEST(DiscoveryServiceTest, SharedDatasetMatchesCsvSessionsWithOneParse) {
  std::string path = ::testing::TempDir() + "/service_test_dataset_" +
                     std::to_string(::getpid()) + ".csv";
  ASSERT_TRUE(WriteCsvFile(WideFlight(), path).ok());

  // Reference runs: independent per-session CSV loads.
  std::string fastod_json;
  std::string tane_json;
  {
    DiscoveryService service(2);
    auto fastod_id = service.Create("fastod");
    auto tane_id = service.Create("tane");
    ASSERT_TRUE(fastod_id.ok() && tane_id.ok());
    ASSERT_TRUE(service.SubmitCsv(*fastod_id, path).ok());
    ASSERT_TRUE(service.SubmitCsv(*tane_id, path).ok());
    service.WaitAll();
    ASSERT_EQ(service.Poll(*fastod_id)->state, SessionState::kDone);
    ASSERT_EQ(service.Poll(*tane_id)->state, SessionState::kDone);
    fastod_json = *service.ResultJson(*fastod_id);
    tane_json = *service.ResultJson(*tane_id);
  }

  DatasetStore store;
  DiscoveryService service(2, nullptr, &store);
  ASSERT_TRUE(store.PutCsvFile("flight", path).ok());
  // The one parse happened above; nothing may touch the file again.
  ASSERT_EQ(std::remove(path.c_str()), 0);

  auto fastod_id = service.Create("fastod");
  auto tane_id = service.Create("tane");
  ASSERT_TRUE(fastod_id.ok() && tane_id.ok());
  ASSERT_TRUE(service.SubmitDataset(*fastod_id, "flight").ok());
  ASSERT_TRUE(service.SubmitDataset(*tane_id, "flight").ok());
  service.WaitAll();
  ASSERT_EQ(service.Poll(*fastod_id)->state, SessionState::kDone);
  ASSERT_EQ(service.Poll(*tane_id)->state, SessionState::kDone);
  EXPECT_EQ(MaskSeconds(*service.ResultJson(*fastod_id)),
            MaskSeconds(fastod_json));
  EXPECT_EQ(MaskSeconds(*service.ResultJson(*tane_id)),
            MaskSeconds(tane_json));

  std::vector<DatasetInfo> infos = store.List();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].hits, 2);  // one Get per session, zero re-parses
}

TEST(DiscoveryServiceTest, SubmitDatasetUnknownIdFailsSynchronously) {
  DatasetStore store;
  DiscoveryService service(1, nullptr, &store);
  auto id = service.Create("fastod");
  ASSERT_TRUE(id.ok());
  Status missing = service.SubmitDataset(*id, "nope");
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  // The session never queued; it is still configurable and usable.
  EXPECT_EQ(service.Poll(*id)->state, SessionState::kCreated);
  ASSERT_TRUE(store.Put(DatasetOf(EmployeeTaxTable(), "yes")).ok());
  ASSERT_TRUE(service.SubmitDataset(*id, "yes").ok());
  ASSERT_TRUE(service.Wait(*id).ok());
  EXPECT_EQ(service.Poll(*id)->state, SessionState::kDone);
}

// Many concurrent mixed-algorithm sessions over one shared dataset: the
// relation and level-1 partitions are read by every worker at once; the
// results must match fresh single-session runs. (The sanitizer CI jobs
// turn any unsynchronized sharing into a failure.)
TEST(DiscoveryServiceTest, ConcurrentMixedAlgorithmsShareOneDataset) {
  // ORDER's exhaustive list lattice needs a level cap to terminate on a
  // 10-attribute relation; the other engines run with defaults.
  struct MixedJob {
    const char* algorithm;
    std::vector<std::pair<std::string, std::string>> options;
  };
  const std::vector<MixedJob> jobs = {
      {"fastod", {}},
      {"tane", {}},
      {"order", {{"max-level", "2"}}},
      {"approximate", {{"max-error", "0.2"}}},
      {"fastod", {{"threads", "2"}}},
      {"tane", {}},
  };
  // References: one fresh run per job over the same table.
  std::vector<std::string> expected;
  for (const MixedJob& job : jobs) {
    auto algo = AlgorithmRegistry::Default().Create(job.algorithm);
    ASSERT_TRUE(algo.ok());
    for (const auto& [name, value] : job.options) {
      ASSERT_TRUE((*algo)->SetOption(name, value).ok());
    }
    ASSERT_TRUE((*algo)->BindDataset(DatasetOf(WideFlight())).ok());
    ASSERT_TRUE((*algo)->Execute().ok());
    expected.push_back((*algo)->ResultJson());
  }

  DatasetStore store;
  DiscoveryService service(6, nullptr, &store);
  ASSERT_TRUE(store.Put(DatasetOf(WideFlight(), "shared")).ok());
  std::vector<SessionId> ids;
  for (const MixedJob& job : jobs) {
    auto id = service.Create(job.algorithm);
    ASSERT_TRUE(id.ok());
    for (const auto& [name, value] : job.options) {
      ASSERT_TRUE(service.SetOption(*id, name, value).ok());
    }
    ASSERT_TRUE(service.SubmitDataset(*id, "shared").ok());
    ids.push_back(*id);
  }
  service.WaitAll();
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(service.Poll(ids[i])->state, SessionState::kDone)
        << jobs[i].algorithm;
    EXPECT_EQ(MaskSeconds(*service.ResultJson(ids[i])),
              MaskSeconds(expected[i]))
        << jobs[i].algorithm;
  }
}

// Sessions pin their dataset: budget pressure may never evict it while
// they live, and destroying the sessions releases the pin.
TEST(DiscoveryServiceTest, LiveSessionPinsDatasetAgainstEviction) {
  DatasetStore store;
  DiscoveryService service(1, nullptr, &store);
  ASSERT_TRUE(store.Put(DatasetOf(EmployeeTaxTable(), "pinned")).ok());
  auto id = service.Create("fastod");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.BindDataset(*id, "pinned").ok());

  store.SetBudgetBytes(1);
  ASSERT_TRUE(store.Get("pinned").ok());  // still resident
  ASSERT_EQ(store.evictions(), 0);

  // The bound session still runs fine under the over-budget store.
  ASSERT_TRUE(service.Submit(*id).ok());
  ASSERT_TRUE(service.Wait(*id).ok());
  EXPECT_EQ(service.Poll(*id)->state, SessionState::kDone);

  // Destroying the only pinning session makes the entry evictable; the
  // next budget pass drops it. The worker that ran the session may hold
  // its reference for a moment after Wait() returns, so spin briefly.
  ASSERT_TRUE(service.Destroy(*id).ok());
  for (int i = 0; i < 1000 && store.Get("pinned").ok(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    store.SetBudgetBytes(1);
  }
  EXPECT_EQ(store.Get("pinned").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.evictions(), 1);
}

}  // namespace
}  // namespace fastod
