// Walks every named fault point in the codebase and proves each
// degrades through its coded-error path: the session turns failed (or
// the call returns a Status), the process keeps serving, and shared
// state (DatasetStore budget accounting, sink counters) stays intact.
//
// Points covered: csv.read, dataset_store.insert, partition.build,
// sink.push, httpd.write — plus the schedule machinery itself
// (FASTOD_FAULTS parsing, env reload, hit counters).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <variant>

#include "api/engines.h"
#include "api/od_sink.h"
#include "api/registry.h"
#include "common/fault.h"
#include "common/status.h"
#include "data/csv.h"
#include "data/dataset_store.h"
#include "gen/generators.h"
#include "obs/metrics.h"
#include "od/attribute_set.h"
#include "server/discovery_server.h"
#include "service/discovery_service.h"
#include "test_util.h"

namespace fastod {
namespace {

/// Every test leaves the process schedule-free even on assertion
/// failure, so fault state cannot leak across tests.
struct ScheduleGuard {
  ~ScheduleGuard() { fault::Clear(); }
};

std::string EmployeeCsv() { return WriteCsvString(EmployeeTaxTable()); }

/// Minimal raw GET: connects, sends the request, returns everything the
/// server wrote before closing ("" when the connection died first).
std::string RawGet(int port, const std::string& path) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

// ----------------------------------------------- schedule machinery

TEST(FaultScheduleTest, MalformedSpecIsRejectedAndPreservesPrevious) {
  ScheduleGuard guard;
  ASSERT_TRUE(fault::SetSchedule("csv.read:fail:1"));
  EXPECT_FALSE(fault::SetSchedule("csv.read"));            // no action
  EXPECT_FALSE(fault::SetSchedule("csv.read:explode:1"));  // bad action
  EXPECT_FALSE(fault::SetSchedule("csv.read:fail:0"));     // N is 1-based
  EXPECT_FALSE(fault::SetSchedule("csv.read:fail:x"));     // bad count
  // The valid schedule installed first is still active.
  Status status = ReadCsvString(EmployeeCsv()).status();
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  // An empty spec clears.
  ASSERT_TRUE(fault::SetSchedule(""));
  EXPECT_TRUE(ReadCsvString(EmployeeCsv()).ok());
}

TEST(FaultScheduleTest, EnvSchedulesLoadAndClear) {
  ScheduleGuard guard;
  ASSERT_EQ(setenv("FASTOD_FAULTS", "csv.read:fail:1", 1), 0);
  EXPECT_TRUE(fault::ReloadFromEnv());
  EXPECT_FALSE(ReadCsvString(EmployeeCsv()).ok());
  ASSERT_EQ(unsetenv("FASTOD_FAULTS"), 0);
  EXPECT_TRUE(fault::ReloadFromEnv());  // unset env clears the schedule
  EXPECT_TRUE(ReadCsvString(EmployeeCsv()).ok());
  ASSERT_EQ(setenv("FASTOD_FAULTS", "not-a-schedule", 1), 0);
  EXPECT_FALSE(fault::ReloadFromEnv());
  ASSERT_EQ(unsetenv("FASTOD_FAULTS"), 0);
}

TEST(FaultScheduleTest, HitsCountEveryPassageWhileScheduled) {
  ScheduleGuard guard;
  ASSERT_TRUE(fault::SetSchedule("csv.read:fail:3"));
  EXPECT_EQ(fault::Hits("csv.read"), 0);
  EXPECT_TRUE(ReadCsvString(EmployeeCsv()).ok());   // hit 1: no trip
  EXPECT_TRUE(ReadCsvString(EmployeeCsv()).ok());   // hit 2: no trip
  EXPECT_FALSE(ReadCsvString(EmployeeCsv()).ok());  // hit 3: trips
  EXPECT_TRUE(ReadCsvString(EmployeeCsv()).ok());   // trips exactly once
  EXPECT_EQ(fault::Hits("csv.read"), 4);
  fault::Clear();
  EXPECT_EQ(fault::Hits("csv.read"), 0);  // counters reset with schedule
}

TEST(FaultScheduleTest, TrippedFaultIncrementsObservedCounter) {
  ScheduleGuard guard;
  const bool saved = obs::Enabled();
  obs::SetEnabled(true);
  // The counter counts *trips*, not passages: one fail on the second
  // hit means exactly one increment across three reads.
  obs::Counter* observed = obs::Registry::Global().GetCounter(
      "fastod_fault_observed_total",
      "Scheduled faults that tripped at their fault point",
      {{"point", "csv.read"}});
  const int64_t before = observed->Value();
  ASSERT_TRUE(fault::SetSchedule("csv.read:fail:2"));
  EXPECT_TRUE(ReadCsvString(EmployeeCsv()).ok());
  EXPECT_FALSE(ReadCsvString(EmployeeCsv()).ok());
  EXPECT_TRUE(ReadCsvString(EmployeeCsv()).ok());
  EXPECT_EQ(observed->Value(), before + 1);
  obs::SetEnabled(saved);
}

// ----------------------------------------------------- point: csv.read

TEST(FaultPointTest, CsvReadFailReturnsIoError) {
  ScheduleGuard guard;
  ASSERT_TRUE(fault::SetSchedule("csv.read:fail:1"));
  Result<Table> table = ReadCsvString(EmployeeCsv());
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIoError);
  EXPECT_NE(table.status().ToString().find("injected fault: csv.read"),
            std::string::npos)
      << table.status().ToString();
  EXPECT_TRUE(ReadCsvString(EmployeeCsv()).ok());
}

TEST(FaultPointTest, CsvReadThrowFailsDeferredSessionServiceSurvives) {
  ScheduleGuard guard;
  // The deferred read happens on the worker thread; the throw must be
  // contained there and become a failed session, not an unwound worker.
  const std::string path = "fault_injection_tmp.csv";
  {
    std::ofstream out(path);
    out << EmployeeCsv();
  }
  DiscoveryService service(2);
  ASSERT_TRUE(fault::SetSchedule("csv.read:throw:1"));
  Result<SessionId> id = service.Create("fastod");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.SubmitCsv(*id, path).ok());
  Result<SessionState> state = service.Wait(*id);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, SessionState::kFailed);
  Result<DiscoveryService::PollInfo> info = service.Poll(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_NE(info->error.find("injected fault at 'csv.read'"),
            std::string::npos)
      << info->error;
  fault::Clear();
  // The worker that swallowed the throw serves the next session.
  Result<SessionId> next = service.Create("fastod");
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(service.SubmitCsv(*next, path).ok());
  Result<SessionState> next_state = service.Wait(*next);
  ASSERT_TRUE(next_state.ok());
  EXPECT_EQ(*next_state, SessionState::kDone);
  std::remove(path.c_str());
}

// ----------------------------------------- point: dataset_store.insert

TEST(FaultPointTest, DatasetStoreInsertFailLeavesStoreUntouched) {
  ScheduleGuard guard;
  DatasetStore store(64 << 20);
  ASSERT_TRUE(fault::SetSchedule("dataset_store.insert:fail:1"));
  auto put = store.Put(DatasetOf(EmployeeTaxTable(), "employee"));
  ASSERT_FALSE(put.ok());
  EXPECT_EQ(put.status().code(), StatusCode::kResourceExhausted)
      << put.status().ToString();
  // The refusal happened before any mutation: no entry, no bytes, and
  // the id is free for the retry.
  EXPECT_EQ(store.size(), 0);
  EXPECT_EQ(store.TotalBytes(), 0);
  EXPECT_TRUE(store.List().empty());
  auto retry = store.Put(DatasetOf(EmployeeTaxTable(), "employee"));
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(store.size(), 1);
  EXPECT_GT(store.TotalBytes(), 0);
}

TEST(FaultPointTest, DatasetStoreInsertThrowIsContainedByHttpHandler) {
  ScheduleGuard guard;
  DiscoveryServerOptions options;
  options.port = 0;
  options.http_threads = 2;
  options.worker_threads = 1;
  DiscoveryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(fault::SetSchedule("dataset_store.insert:throw:1"));
  // Exercised via the store directly (the HTTP handler containment is
  // covered by server_test's ThrowingAlgorithm): the throw must leave
  // the server's store consistent for the next upload.
  EXPECT_THROW(
      (void)server.service().store().Put(DatasetOf(EmployeeTaxTable(), "d1")),
      fault::FaultInjected);
  fault::Clear();
  EXPECT_EQ(server.service().store().size(), 0);
  auto retry =
      server.service().store().Put(DatasetOf(EmployeeTaxTable(), "d1"));
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
  server.Stop();
}

// ---------------------------------------------- point: partition.build

TEST(FaultPointTest, PartitionBuildThrowFailsSessionWorkerSurvives) {
  ScheduleGuard guard;
  // A deferred CSV session builds its level-1 partitions on the worker.
  const std::string path =
      ::testing::TempDir() + "/fault_partition_build.csv";
  ASSERT_TRUE(WriteCsvFile(EmployeeTaxTable(), path).ok());
  DiscoveryService service(1);  // one worker: its survival is observable
  ASSERT_TRUE(fault::SetSchedule("partition.build:throw:1"));
  Result<SessionId> id = service.Create("fastod");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.SubmitCsv(*id, path).ok());
  Result<SessionState> state = service.Wait(*id);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, SessionState::kFailed);
  Result<DiscoveryService::PollInfo> info = service.Poll(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->error_code, StatusCode::kInternal);
  EXPECT_NE(info->error.find("injected fault at 'partition.build'"),
            std::string::npos)
      << info->error;
  fault::Clear();
  Result<SessionId> next = service.Create("fastod");
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(service.SubmitCsv(*next, path).ok());
  Result<SessionState> next_state = service.Wait(*next);
  ASSERT_TRUE(next_state.ok());
  EXPECT_EQ(*next_state, SessionState::kDone);
  std::remove(path.c_str());
}

// --------------------------------------------------- point: sink.push

TEST(FaultPointTest, SinkPushFailDropsExactlyTheScheduledEvent) {
  ScheduleGuard guard;
  ChannelOdSink sink(8);
  ASSERT_TRUE(fault::SetSchedule("sink.push:fail:2"));
  sink.OnConstancy(ConstancyOd{AttributeSet(), 0});  // delivered
  sink.OnConstancy(ConstancyOd{AttributeSet(), 1});  // tripped: dropped
  sink.OnConstancy(ConstancyOd{AttributeSet(), 2});  // delivered
  EXPECT_EQ(sink.pushed(), 2);
  EXPECT_EQ(sink.dropped(), 1);
  // The two delivered events drain in order; the dropped one is gone.
  OdEvent event;
  ASSERT_TRUE(sink.Pop(&event));
  EXPECT_EQ(std::get<ConstancyOd>(event).attribute, 0);
  ASSERT_TRUE(sink.Pop(&event));
  EXPECT_EQ(std::get<ConstancyOd>(event).attribute, 2);
  sink.Close();
  EXPECT_FALSE(sink.Pop(&event));
}

TEST(FaultPointTest, SinkPushFailDuringRunStillFinishesSession) {
  ScheduleGuard guard;
  ChannelOdSink sink(1024);
  DiscoveryService service(1);
  ASSERT_TRUE(fault::SetSchedule("sink.push:fail:1"));
  Result<SessionId> id = service.Create("fastod");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.BindDataset(*id, DatasetOf(EmployeeTaxTable())).ok());
  ASSERT_TRUE(service.SetSink(*id, &sink).ok());
  ASSERT_TRUE(service.Submit(*id).ok());
  Result<SessionState> state = service.Wait(*id);
  ASSERT_TRUE(state.ok());
  // Lost delivery is a delivery problem, not a discovery problem.
  EXPECT_EQ(*state, SessionState::kDone);
  EXPECT_EQ(sink.dropped(), 1);
  EXPECT_GT(sink.pushed(), 0);
}

// -------------------------------------------------- point: httpd.write

TEST(FaultPointTest, HttpdWriteFailClosesOneConnectionServerKeepsServing) {
  ScheduleGuard guard;
  DiscoveryServerOptions options;
  options.port = 0;
  options.http_threads = 2;
  options.worker_threads = 1;
  DiscoveryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(fault::SetSchedule("httpd.write:fail:1"));
  // First request: the server drops the response mid-write; the client
  // sees a closed connection with no status line, which is exactly the
  // degradation we want (no crash, no wedged handler thread).
  std::string first = RawGet(server.port(), "/v1/algorithms");
  EXPECT_EQ(first.find("200"), std::string::npos)
      << "write fault should kill the response, got: " << first;
  EXPECT_GE(fault::Hits("httpd.write"), 1);
  fault::Clear();
  // Second request on a fresh connection: full service.
  std::string second = RawGet(server.port(), "/v1/algorithms");
  EXPECT_EQ(second.rfind("HTTP/1.1 200", 0), 0) << second;
  server.Stop();
}

}  // namespace
}  // namespace fastod
