// Production-hardening coverage: deadlines (timeout-ms), admission
// control at the service and server layers, per-client quotas, bounded
// request bodies, graceful drain, and the ThreadPool submit-after-stop
// race. The acceptance bars:
//
//  * a timeout-ms=50 session on a non-trivial table ends failed with
//    kDeadlineExceeded and the worker is reusable immediately after;
//  * timeout-ms stops fastod, tane and order inside the run even with
//    no control attached (the CLI's case), and an engine run directly
//    reports a passed deadline as timed_out, a cancel as cancelled;
//  * with the admission cap saturated the next POST /v1/sessions is a
//    429 carrying Retry-After, while the in-flight stream keeps
//    delivering and closes with a clean end line;
//  * BeginDrain() turns session creation into 503 + Retry-After but
//    leaves polls and running sessions alone, and Drain() returns once
//    they finish.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/engines.h"
#include "api/registry.h"
#include "common/cancellation.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "data/csv.h"
#include "gen/generators.h"
#include "server/discovery_server.h"
#include "service/discovery_service.h"
#include "test_util.h"

namespace fastod {
namespace {

// ------------------------------------------------- tiny HTTP client
// (kept local per test TU; see server_test.cc for the annotated copy)

int Connect(int port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

struct ClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // lowercased names
  std::string body;
};

class ResponseReader {
 public:
  explicit ResponseReader(int fd) : fd_(fd) {}
  ~ResponseReader() { close(fd_); }

  bool ReadHeader(ClientResponse* out) {
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return false;
    }
    std::string head = buffer_.substr(0, header_end);
    buffer_ = buffer_.substr(header_end + 4);
    size_t line_end = head.find("\r\n");
    std::string status_line = head.substr(0, line_end);
    if (status_line.size() < 12) return false;
    out->status = std::atoi(status_line.substr(9, 3).c_str());
    size_t pos = line_end + 2;
    while (pos < head.size()) {
      size_t eol = head.find("\r\n", pos);
      if (eol == std::string::npos) eol = head.size();
      std::string line = head.substr(pos, eol - pos);
      pos = eol + 2;
      size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string name = line.substr(0, colon);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      size_t value = line.find_first_not_of(" \t", colon + 1);
      out->headers[name] =
          value == std::string::npos ? "" : line.substr(value);
    }
    chunked_ = out->headers.count("transfer-encoding") != 0 &&
               out->headers["transfer-encoding"] == "chunked";
    return true;
  }

  std::string NextChunk() {
    size_t line_end;
    while ((line_end = buffer_.find("\r\n")) == std::string::npos) {
      if (!Fill()) return "";
    }
    size_t size = std::strtoul(buffer_.substr(0, line_end).c_str(),
                               nullptr, 16);
    buffer_ = buffer_.substr(line_end + 2);
    if (size == 0) return "";
    while (buffer_.size() < size + 2) {
      if (!Fill()) return "";
    }
    std::string chunk = buffer_.substr(0, size);
    buffer_ = buffer_.substr(size + 2);
    return chunk;
  }

  std::string ReadBody(const ClientResponse& response) {
    if (chunked_) {
      std::string body;
      for (std::string chunk = NextChunk(); !chunk.empty();
           chunk = NextChunk()) {
        body += chunk;
      }
      return body;
    }
    auto it = response.headers.find("content-length");
    if (it != response.headers.end()) {
      size_t length = std::strtoul(it->second.c_str(), nullptr, 10);
      while (buffer_.size() < length && Fill()) {
      }
      return buffer_.substr(0, length);
    }
    while (Fill()) {
    }
    return buffer_;
  }

 private:
  bool Fill() {
    char chunk[4096];
    ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_;
  std::string buffer_;
  bool chunked_ = false;
};

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = send(fd, data.data() + sent, data.size() - sent, 0);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string RequestText(
    const std::string& method, const std::string& path,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers = {}) {
  std::string out = method + " " + path + " HTTP/1.1\r\n"
                    "Host: 127.0.0.1\r\n";
  for (const auto& [name, value] : headers) {
    out += name + ": " + value + "\r\n";
  }
  if (!body.empty()) {
    out += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n";
  }
  return out + "\r\n" + body;
}

ClientResponse Fetch(
    int port, const std::string& method, const std::string& path,
    const std::string& body = "",
    const std::vector<std::pair<std::string, std::string>>& headers = {}) {
  ClientResponse response;
  int fd = Connect(port);
  if (fd < 0) return response;
  ResponseReader reader(fd);
  if (!SendAll(fd, RequestText(method, path, body, headers))) {
    return response;
  }
  if (!reader.ReadHeader(&response)) return response;
  response.body = reader.ReadBody(response);
  return response;
}

// ------------------------------------------------- test algorithms

/// Emits one constancy OD per step, blocking between steps until the
/// test releases it, cancel arrives, or the deadline passes.
class StepAlgorithm : public Algorithm {
 public:
  struct Gate {
    std::mutex mutex;
    std::condition_variable cv;
    int released = 0;

    void Release() {
      {
        std::lock_guard<std::mutex> lock(mutex);
        ++released;
      }
      cv.notify_all();
    }
  };

  StepAlgorithm(Gate* gate, int steps)
      : Algorithm("step", "test-only step-gated emitter"),
        gate_(gate),
        steps_(steps) {}

  std::string ResultText() const override { return "step\n"; }
  std::string ResultJson() const override {
    return "{\"algorithm\": \"step\"}\n";
  }

 protected:
  Status ExecuteInternal() override {
    for (int step = 0; step < steps_; ++step) {
      if (sink() != nullptr) {
        sink()->OnConstancy(ConstancyOd{AttributeSet(), step % 2});
      }
      if (step + 1 == steps_) break;
      // Cancellation is an atomic flag with no one to notify the gate,
      // so wake periodically to observe it.
      std::unique_lock<std::mutex> lock(gate_->mutex);
      while (gate_->released <= step && !control()->StopRequested()) {
        gate_->cv.wait_for(lock, std::chrono::milliseconds(5));
      }
      if (control()->StopRequested()) break;
    }
    return Status::Ok();
  }

 private:
  Gate* gate_;
  int steps_;
};

/// Spins (1 ms naps) until StopRequested or `max_ms` — a run long
/// enough that any sane deadline fires first, stopping at the
/// same safepoints real engines use.
class SpinAlgorithm : public Algorithm {
 public:
  explicit SpinAlgorithm(int max_ms)
      : Algorithm("spin", "test-only busy run"), max_ms_(max_ms) {}

  std::string ResultText() const override { return "spin\n"; }
  std::string ResultJson() const override {
    return "{\"algorithm\": \"spin\"}\n";
  }

 protected:
  Status ExecuteInternal() override {
    WallTimer timer;
    while (timer.ElapsedSeconds() * 1000.0 < max_ms_) {
      if (control()->StopRequested()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::Ok();
  }

 private:
  int max_ms_;
};

std::string EmployeeCsv() { return WriteCsvString(EmployeeTaxTable()); }

Table TinyTable() { return EmployeeTaxTable(); }

class ServerFixture {
 public:
  explicit ServerFixture(DiscoveryServerOptions options = {},
                         int steps = 2) {
    RegisterBuiltinAlgorithms(&registry_);
    registry_.Register("step", [this, steps] {
      return std::unique_ptr<Algorithm>(new StepAlgorithm(&gate_, steps));
    });
    registry_.Register("spin", [] {
      return std::unique_ptr<Algorithm>(new SpinAlgorithm(10000));
    });
    options.port = 0;
    options.http_threads = 4;
    options.worker_threads = 2;
    server_ = std::make_unique<DiscoveryServer>(options, &registry_);
    Status started = server_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  int port() const { return server_->port(); }
  StepAlgorithm::Gate& gate() { return gate_; }
  DiscoveryServer& server() { return *server_; }

 private:
  AlgorithmRegistry registry_;
  StepAlgorithm::Gate gate_;
  std::unique_ptr<DiscoveryServer> server_;
};

int64_t SessionIdOf(const std::string& body) {
  auto parsed = ParseJson(body);
  EXPECT_TRUE(parsed.ok()) << body;
  const JsonValue* id = parsed->Find("id");
  EXPECT_NE(id, nullptr) << body;
  return id == nullptr ? -1 : id->int_value();
}

std::string StateOf(int port, int64_t id) {
  ClientResponse response =
      Fetch(port, "GET", "/v1/sessions/" + std::to_string(id));
  auto parsed = ParseJson(response.body);
  if (!parsed.ok()) return "unparseable";
  const JsonValue* state = parsed->Find("state");
  return state == nullptr ? "missing" : state->string_value();
}

std::string WaitTerminalState(int port, int64_t id) {
  for (int i = 0; i < 3000; ++i) {
    std::string state = StateOf(port, id);
    if (state == "done" || state == "failed" || state == "cancelled" ||
        state == "deadline_exceeded") {
      return state;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return "never-terminal";
}

// --------------------------------------------------- deadline: common

TEST(DeadlineTest, ExecutionControlDeadlineTripsAndClears) {
  ExecutionControl control;
  EXPECT_FALSE(control.HasDeadline());
  EXPECT_FALSE(control.StopRequested());
  control.SetDeadlineAfterMillis(1);
  EXPECT_TRUE(control.HasDeadline());
  WallTimer timer;
  while (!control.DeadlineExceeded() && timer.ElapsedSeconds() < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(control.DeadlineExceeded());
  EXPECT_TRUE(control.StopRequested());    // deadline alone stops a run
  EXPECT_FALSE(control.CancelRequested());  // ...without being a cancel
  control.SetDeadlineAfterMillis(0);  // disarm
  EXPECT_FALSE(control.HasDeadline());
  EXPECT_FALSE(control.StopRequested());
  control.SetDeadlineAfterMillis(1);
  control.Reset();  // Reset clears the deadline with everything else
  EXPECT_FALSE(control.HasDeadline());
}

TEST(DeadlineTest, EveryRegisteredEngineHasTimeoutMs) {
  AlgorithmRegistry registry;
  RegisterBuiltinAlgorithms(&registry);
  for (const std::string& name : registry.Names()) {
    Result<std::unique_ptr<Algorithm>> algo = registry.Create(name);
    ASSERT_TRUE(algo.ok()) << name;
    EXPECT_NE((*algo)->FindOption("timeout-ms"), nullptr)
        << name << " is missing the base timeout-ms option";
  }
}

TEST(DeadlineTest, TimeoutMsFailsExecuteWithDeadlineExceeded) {
  SpinAlgorithm algo(10000);  // would run 10 s without the deadline
  ExecutionControl control;
  algo.SetControl(&control);
  ASSERT_TRUE(algo.BindDataset(DatasetOf(TinyTable())).ok());
  ASSERT_TRUE(algo.SetOption("timeout-ms", "50").ok());
  WallTimer timer;
  Status status = algo.Execute();
  double elapsed = timer.ElapsedSeconds();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
      << status.ToString();
  EXPECT_FALSE(algo.executed());
  // The engine polls every ~1 ms; 2 s is a very generous CI bound for
  // a 50 ms deadline.
  EXPECT_LT(elapsed, 2.0);
}

TEST(DeadlineTest, ZeroTimeoutMsDisarmsOnReusedAlgorithm) {
  SpinAlgorithm algo(20);  // finishes on its own in ~20 ms
  ExecutionControl control;
  algo.SetControl(&control);
  ASSERT_TRUE(algo.BindDataset(DatasetOf(TinyTable())).ok());
  ASSERT_TRUE(algo.SetOption("timeout-ms", "10000").ok());
  EXPECT_TRUE(algo.Execute().ok());
  // Re-running with 0 must disarm the previous run's deadline.
  ASSERT_TRUE(algo.SetOption("timeout-ms", "0").ok());
  EXPECT_TRUE(algo.Execute().ok());
  EXPECT_FALSE(control.HasDeadline());
}

TEST(DeadlineTest, FastodSessionDeadlineFailsAndWorkerIsReusable) {
  DiscoveryService service(1);  // one worker: reuse is observable
  Result<SessionId> id = service.Create("fastod");
  ASSERT_TRUE(id.ok());
  // A lattice walk far beyond a 50 ms budget: hepatitis-like 155x16 is
  // a deep, wide lattice (~0.4 s serially), unlike a row-heavy input
  // whose products partition reuse can short-cut.
  ASSERT_TRUE(
      service.BindDataset(*id, DatasetOf(GenHepatitisLike(155, 16))).ok());
  ASSERT_TRUE(service.SetOption(*id, "timeout-ms", "50").ok());
  WallTimer timer;
  ASSERT_TRUE(service.Submit(*id).ok());
  Result<SessionState> state = service.Wait(*id);
  double elapsed = timer.ElapsedSeconds();
  ASSERT_TRUE(state.ok());
  ASSERT_EQ(*state, SessionState::kFailed);
  Result<DiscoveryService::PollInfo> info = service.Poll(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->error_code, StatusCode::kDeadlineExceeded)
      << info->error;
  // The lattice walk polls the deadline at every node task; allow CI
  // slack far beyond the ~2x-deadline typical case.
  EXPECT_LT(elapsed, 5.0);
  // The worker that hit the deadline must take the next run at once.
  Result<SessionId> next = service.Create("fastod");
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(service.BindDataset(*next, DatasetOf(TinyTable())).ok());
  ASSERT_TRUE(service.Submit(*next).ok());
  Result<SessionState> next_state = service.Wait(*next);
  ASSERT_TRUE(next_state.ok());
  EXPECT_EQ(*next_state, SessionState::kDone);
}

// With no control attached — the CLI's case — timeout-ms still stops the
// run at a safepoint inside it, not after it. Hepatitis-like 155x16 is a
// deep, wide lattice (FASTOD takes ~0.4 s on it serially); ORDER's list
// lattice is factorial, so both its runs stop at list length 3.
TEST(DeadlineTest, TimeoutMsWithNoControlStopsInsideTheRun) {
  std::shared_ptr<const LoadedDataset> dataset =
      DatasetOf(GenHepatitisLike(155, 16, 7));
  for (const std::string engine : {"fastod", "tane", "order"}) {
    SCOPED_TRACE(engine);
    const std::string max_level = engine == "order" ? "3" : "0";
    Result<std::unique_ptr<Algorithm>> full =
        AlgorithmRegistry::Default().Create(engine);
    Result<std::unique_ptr<Algorithm>> limited =
        AlgorithmRegistry::Default().Create(engine);
    ASSERT_TRUE(full.ok() && limited.ok());
    for (Algorithm* algo : {full->get(), limited->get()}) {
      ASSERT_TRUE(algo->SetOption("max-level", max_level).ok());
      ASSERT_TRUE(algo->BindDataset(dataset).ok());
    }
    ASSERT_TRUE((*full)->Execute().ok());
    ASSERT_TRUE((*limited)->SetOption("timeout-ms", "1").ok());
    Status status = (*limited)->Execute();
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
        << status.ToString();
    EXPECT_LT((*limited)->stats().nodes_visited,
              (*full)->stats().nodes_visited);
  }
}

// {timed_out, cancelled} of FASTOD, TANE and ORDER run directly (not
// through Algorithm) under `control`.
std::vector<std::pair<bool, bool>> DirectStopFlags(ExecutionControl* control) {
  EncodedRelation relation = Encode(GenHepatitisLike(155, 16, 7));
  FastodOptions fastod;
  fastod.control = control;
  TaneOptions tane;
  tane.control = control;
  OrderOptions order;
  order.control = control;
  order.max_level = 3;
  FastodResult f = Fastod(fastod).Discover(relation);
  TaneResult t = Tane(tane).Discover(relation);
  OrderResult o = OrderBaseline(order).Discover(relation);
  return {{f.timed_out, f.cancelled},
          {t.timed_out, t.cancelled},
          {o.timed_out, o.cancelled}};
}

TEST(DeadlineTest, PassedDeadlineFlagsDirectRunsTimedOutNotCancelled) {
  ExecutionControl control;
  ExpireDeadline(&control);
  EXPECT_EQ(DirectStopFlags(&control),
            (std::vector<std::pair<bool, bool>>(3, {true, false})));
}

TEST(DeadlineTest, CancelFlagsDirectRunsCancelledNotTimedOut) {
  ExecutionControl control;
  control.RequestCancel();
  EXPECT_EQ(DirectStopFlags(&control),
            (std::vector<std::pair<bool, bool>>(3, {false, true})));
}

// ------------------------------------------------ admission: service

TEST(AdmissionTest, ServiceCapRefusesWithUnavailableThenRecovers) {
  AlgorithmRegistry registry;
  StepAlgorithm::Gate gate;
  registry.Register("step", [&gate] {
    return std::unique_ptr<Algorithm>(new StepAlgorithm(&gate, 2));
  });
  DiscoveryService service(2, &registry);
  service.SetMaxActiveSessions(1);
  EXPECT_EQ(service.max_active_sessions(), 1);

  Result<SessionId> first = service.Create("step");
  Result<SessionId> second = service.Create("step");
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_TRUE(service.BindDataset(*first, DatasetOf(TinyTable())).ok());
  ASSERT_TRUE(service.BindDataset(*second, DatasetOf(TinyTable())).ok());

  ASSERT_TRUE(service.Submit(*first).ok());
  EXPECT_EQ(service.num_active(), 1);
  Status refused = service.Submit(*second);
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable)
      << refused.ToString();
  // The refused session never left kCreated — it can be resubmitted.
  Result<DiscoveryService::PollInfo> info = service.Poll(*second);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, SessionState::kCreated);

  gate.Release();
  ASSERT_TRUE(service.Wait(*first).ok());
  EXPECT_EQ(service.num_active(), 0);
  ASSERT_TRUE(service.Submit(*second).ok()) << "slot must free on finish";
  gate.Release();
  Result<SessionState> state = service.Wait(*second);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, SessionState::kDone);
}

TEST(AdmissionTest, ThreadPoolSubmitAfterStopReturnsFalse) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_TRUE(pool.Submit([&] { ran.fetch_add(1); }));
  pool.Stop();
  EXPECT_FALSE(pool.Submit([&] { ran.fetch_add(1); }));
  pool.Stop();  // idempotent
  EXPECT_EQ(ran.load(), 1);
}

TEST(AdmissionTest, SubmitRacingPoolStopNeverLosesAcceptedWork) {
  // Submit from another thread while Stop() lands at varying points:
  // every call must return true or false (never crash or hang), and a
  // true return is a guarantee — the task runs before Stop() returns.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(2);
    std::atomic<int> accepted{0};
    std::atomic<int> ran{0};
    std::thread submitter([&] {
      for (int i = 0; i < 64; ++i) {
        if (pool.Submit([&] { ran.fetch_add(1); })) {
          accepted.fetch_add(1);
        }
      }
    });
    std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
    pool.Stop();
    submitter.join();
    EXPECT_EQ(ran.load(), accepted.load()) << "round " << round;
  }
}

// ------------------------------------------------- admission: server

TEST(OverloadTest, PostPastCapIs429WithRetryAfterAndStreamsSurvive) {
  DiscoveryServerOptions options;
  options.max_sessions = 1;
  options.retry_after_seconds = 7;
  ServerFixture fixture(options, /*steps=*/3);

  // Occupy the only admission slot with a streaming session and read
  // its first OD line so the run is provably mid-flight.
  ClientResponse created = Fetch(
      fixture.port(), "POST", "/v1/sessions",
      "{\"algorithm\": \"step\", \"csv\": \"" + JsonEscape(EmployeeCsv()) +
          "\", \"stream\": true}");
  ASSERT_EQ(created.status, 201) << created.body;
  int64_t id = SessionIdOf(created.body);
  int stream_fd = Connect(fixture.port());
  ASSERT_GE(stream_fd, 0);
  ResponseReader stream(stream_fd);
  ASSERT_TRUE(SendAll(
      stream_fd,
      RequestText("GET", "/v1/sessions/" + std::to_string(id) + "/stream",
                  "")));
  ClientResponse stream_head;
  ASSERT_TRUE(stream.ReadHeader(&stream_head));
  ASSERT_EQ(stream_head.status, 200);
  std::string first = stream.NextChunk();
  ASSERT_NE(first.find("\"constancy\""), std::string::npos) << first;

  // The N+1th POST: 429, Retry-After, Unavailable code.
  ClientResponse rejected = Fetch(
      fixture.port(), "POST", "/v1/sessions",
      "{\"algorithm\": \"step\", \"csv\": \"" + JsonEscape(EmployeeCsv()) +
          "\"}");
  EXPECT_EQ(rejected.status, 429) << rejected.body;
  EXPECT_EQ(rejected.headers["retry-after"], "7");
  EXPECT_NE(rejected.body.find("Unavailable"), std::string::npos)
      << rejected.body;

  // The in-flight stream is unaffected: release the remaining steps and
  // read through the clean end line.
  fixture.gate().Release();
  fixture.gate().Release();
  int ods = 1;
  std::string end_line;
  for (std::string chunk = stream.NextChunk(); !chunk.empty();
       chunk = stream.NextChunk()) {
    size_t pos = 0;
    while (pos < chunk.size()) {
      size_t eol = chunk.find('\n', pos);
      if (eol == std::string::npos) eol = chunk.size();
      std::string line = chunk.substr(pos, eol - pos);
      pos = eol + 1;
      if (line.find("\"end\"") != std::string::npos) {
        end_line = line;
      } else if (!line.empty()) {
        ++ods;
      }
    }
  }
  EXPECT_EQ(ods, 3);
  ASSERT_FALSE(end_line.empty());
  auto parsed = ParseJson(end_line);
  ASSERT_TRUE(parsed.ok()) << end_line;
  EXPECT_EQ(parsed->Find("state")->string_value(), "done");
  EXPECT_EQ(parsed->Find("streamed")->int_value(), 3);

  // The slot freed on completion: the retry succeeds.
  ClientResponse retried = Fetch(
      fixture.port(), "POST", "/v1/sessions",
      "{\"algorithm\": \"fastod\", \"csv\": \"" +
          JsonEscape(EmployeeCsv()) + "\"}");
  EXPECT_EQ(retried.status, 201) << retried.body;
  EXPECT_EQ(WaitTerminalState(fixture.port(), SessionIdOf(retried.body)),
            "done");
}

TEST(OverloadTest, PerClientQuotaKeysOnClientIdHeader) {
  DiscoveryServerOptions options;
  options.max_sessions_per_client = 1;
  ServerFixture fixture(options, /*steps=*/2);
  std::string body = "{\"algorithm\": \"step\", \"csv\": \"" +
                     JsonEscape(EmployeeCsv()) + "\"}";

  ClientResponse alice1 = Fetch(fixture.port(), "POST", "/v1/sessions",
                                body, {{"X-Client-Id", "alice"}});
  ASSERT_EQ(alice1.status, 201) << alice1.body;
  ClientResponse alice2 = Fetch(fixture.port(), "POST", "/v1/sessions",
                                body, {{"X-Client-Id", "alice"}});
  EXPECT_EQ(alice2.status, 429) << alice2.body;
  EXPECT_FALSE(alice2.headers["retry-after"].empty());
  // A different identity is not throttled by alice's quota.
  ClientResponse bob = Fetch(fixture.port(), "POST", "/v1/sessions", body,
                             {{"X-Client-Id", "bob"}});
  EXPECT_EQ(bob.status, 201) << bob.body;

  fixture.gate().Release();
  fixture.gate().Release();
  EXPECT_EQ(WaitTerminalState(fixture.port(), SessionIdOf(alice1.body)),
            "done");
  EXPECT_EQ(WaitTerminalState(fixture.port(), SessionIdOf(bob.body)),
            "done");
  // Terminal sessions free quota without a purge.
  ClientResponse alice3 = Fetch(fixture.port(), "POST", "/v1/sessions",
                                body, {{"X-Client-Id", "alice"}});
  EXPECT_EQ(alice3.status, 201) << alice3.body;
  fixture.gate().Release();
  WaitTerminalState(fixture.port(), SessionIdOf(alice3.body));
}

TEST(OverloadTest, OversizedBodyIs413BeforeParsing) {
  DiscoveryServerOptions options;
  options.max_body_bytes = 1024;
  ServerFixture fixture(options);
  std::string big(4096, 'x');
  ClientResponse response = Fetch(
      fixture.port(), "POST", "/v1/sessions",
      "{\"algorithm\": \"fastod\", \"csv\": \"" + big + "\"}");
  EXPECT_EQ(response.status, 413) << response.body;
  // Within the cap everything still works.
  ClientResponse ok = Fetch(
      fixture.port(), "POST", "/v1/sessions",
      "{\"algorithm\": \"fastod\", \"csv\": \"" +
          JsonEscape(EmployeeCsv()) + "\"}");
  EXPECT_EQ(ok.status, 201) << ok.body;
  WaitTerminalState(fixture.port(), SessionIdOf(ok.body));
}

// ------------------------------------------------------------ drain

TEST(DrainTest, BeginDrainRejectsNewSessionsButServesLiveOnes) {
  ServerFixture fixture({}, /*steps=*/2);
  ClientResponse created = Fetch(
      fixture.port(), "POST", "/v1/sessions",
      "{\"algorithm\": \"step\", \"csv\": \"" + JsonEscape(EmployeeCsv()) +
          "\"}");
  ASSERT_EQ(created.status, 201) << created.body;
  int64_t id = SessionIdOf(created.body);

  fixture.server().BeginDrain();
  EXPECT_TRUE(fixture.server().draining());
  ClientResponse refused = Fetch(
      fixture.port(), "POST", "/v1/sessions",
      "{\"algorithm\": \"fastod\", \"csv\": \"" +
          JsonEscape(EmployeeCsv()) + "\"}");
  EXPECT_EQ(refused.status, 503) << refused.body;
  EXPECT_FALSE(refused.headers["retry-after"].empty());
  // Observation of in-flight work is NOT drained: the one-request-per-
  // connection protocol needs fresh connections to poll results.
  ClientResponse poll =
      Fetch(fixture.port(), "GET", "/v1/sessions/" + std::to_string(id));
  EXPECT_EQ(poll.status, 200) << poll.body;

  fixture.gate().Release();
  EXPECT_TRUE(fixture.server().Drain(10.0)) << "session finished in time";
  EXPECT_EQ(StateOf(fixture.port(), id), "done");
}

TEST(DrainTest, DrainTimeoutCancelsStragglers) {
  ServerFixture fixture({}, /*steps=*/2);  // never released: must cancel
  ClientResponse created = Fetch(
      fixture.port(), "POST", "/v1/sessions",
      "{\"algorithm\": \"step\", \"csv\": \"" + JsonEscape(EmployeeCsv()) +
          "\"}");
  ASSERT_EQ(created.status, 201) << created.body;
  int64_t id = SessionIdOf(created.body);
  fixture.server().BeginDrain();
  EXPECT_FALSE(fixture.server().Drain(0.1)) << "straggler was cancelled";
  EXPECT_EQ(fixture.server().service().num_active(), 0);
  EXPECT_EQ(StateOf(fixture.port(), id), "cancelled");
}

// ------------------------------------------- deadline over the wire

TEST(DeadlineTest, DeadlineExceededIsItsOwnWireState) {
  ServerFixture fixture;
  ClientResponse created = Fetch(
      fixture.port(), "POST", "/v1/sessions",
      "{\"algorithm\": \"spin\", \"csv\": \"" + JsonEscape(EmployeeCsv()) +
          "\", \"options\": {\"timeout-ms\": 50}}");
  ASSERT_EQ(created.status, 201) << created.body;
  int64_t id = SessionIdOf(created.body);
  EXPECT_EQ(WaitTerminalState(fixture.port(), id), "deadline_exceeded");
  ClientResponse info =
      Fetch(fixture.port(), "GET", "/v1/sessions/" + std::to_string(id));
  EXPECT_NE(info.body.find("DeadlineExceeded"), std::string::npos)
      << info.body;
}

}  // namespace
}  // namespace fastod
