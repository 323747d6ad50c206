#include "service/discovery_service.h"

#include <thread>
#include <utility>

#include "obs/metrics.h"

namespace fastod {

namespace {

int ResolveThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<int>(hw);
}

Status StaleHandle(SessionId id) {
  return Status::NotFound("no session with id " + std::to_string(id));
}

}  // namespace

DiscoveryService::DiscoveryService(int num_threads,
                                   const AlgorithmRegistry* registry,
                                   DatasetStore* store)
    : registry_(registry != nullptr ? *registry
                                    : AlgorithmRegistry::Default()),
      store_(store != nullptr ? *store : DatasetStore::Global()),
      pool_(ResolveThreads(num_threads)) {}

DiscoveryService::~DiscoveryService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, session] : sessions_) session->RequestCancel();
  }
  // ~ThreadPool (the first member destroyed) drains the queue; cancelled
  // runs stop at their next check point.
}

void DiscoveryService::Shutdown() { pool_.Stop(); }

Result<SessionId> DiscoveryService::Create(const std::string& algorithm) {
  Result<std::unique_ptr<Algorithm>> algo = registry_.Create(algorithm);
  if (!algo.ok()) return algo.status();
  auto session = std::make_shared<DiscoverySession>(std::move(algo).value());
  std::lock_guard<std::mutex> lock(mutex_);
  if (current_shared_sink_ != nullptr) {
    session->SetSink(current_shared_sink_);
  }
  SessionId id = next_id_++;
  sessions_.emplace(id, std::move(session));
  return id;
}

std::shared_ptr<DiscoverySession> DiscoveryService::FindMutable(
    SessionId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

std::shared_ptr<const DiscoverySession> DiscoveryService::Find(
    SessionId id) const {
  return FindMutable(id);
}

Status DiscoveryService::SetOption(SessionId id, const std::string& name,
                                   const std::string& value) {
  auto session = FindMutable(id);
  if (session == nullptr) return StaleHandle(id);
  return session->SetOption(name, value);
}

Status DiscoveryService::BindDataset(SessionId id,
                                     const std::string& dataset_id,
                                     int64_t version) {
  auto session = FindMutable(id);
  if (session == nullptr) return StaleHandle(id);
  Result<std::shared_ptr<const LoadedDataset>> dataset =
      store_.Get(dataset_id, version);
  if (!dataset.ok()) return dataset.status();
  return session->BindDataset(*std::move(dataset));
}

Status DiscoveryService::BindDataset(
    SessionId id, std::shared_ptr<const LoadedDataset> dataset) {
  auto session = FindMutable(id);
  if (session == nullptr) return StaleHandle(id);
  return session->BindDataset(std::move(dataset));
}

Status DiscoveryService::SetSink(SessionId id, OdSink* sink) {
  auto session = FindMutable(id);
  if (session == nullptr) return StaleHandle(id);
  if (session->state() != SessionState::kCreated) {
    return Status::FailedPrecondition(
        "sink may only be attached before submission");
  }
  session->SetSink(sink);
  return Status::Ok();
}

void DiscoveryService::SetMaxActiveSessions(int64_t max_active) {
  std::lock_guard<std::mutex> lock(mutex_);
  max_active_ = max_active < 0 ? 0 : max_active;
}

int64_t DiscoveryService::max_active_sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_active_;
}

int64_t DiscoveryService::num_active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_;
}

namespace {

// Resolved once; updated on every admission transition (not per node,
// so the lookup-by-name cost would also be fine).
obs::Gauge* ActiveSessionsGauge() {
  static obs::Gauge* gauge = obs::Registry::Global().GetGauge(
      "fastod_service_active_sessions",
      "Sessions admitted and not yet terminal (queued + running)");
  return gauge;
}

obs::Counter* AdmissionRejectionsCounter() {
  static obs::Counter* counter = obs::Registry::Global().GetCounter(
      "fastod_service_admission_rejections_total",
      "Session submissions refused by admission control",
      {{"reason", "capacity"}});
  return counter;
}

}  // namespace

Status DiscoveryService::Admit() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (max_active_ > 0 && active_ >= max_active_) {
    AdmissionRejectionsCounter()->Inc();
    return Status::Unavailable(
        "service at capacity (" + std::to_string(active_) + "/" +
        std::to_string(max_active_) + " active sessions); retry later");
  }
  ++active_;
  ActiveSessionsGauge()->Set(active_);
  return Status::Ok();
}

void DiscoveryService::Unadmit() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --active_;
    ActiveSessionsGauge()->Set(active_);
  }
  // A submitter blocked on capacity has no cv of its own; waiters on
  // terminal_cv_ may also be polling num_active() (drain), so wake them.
  terminal_cv_.notify_all();
}

Status DiscoveryService::Schedule(
    const std::shared_ptr<DiscoverySession>& session) {
  if (pool_.Submit([this, session] { RunSession(session); })) {
    return Status::Ok();
  }
  // The pool began shutting down between our admission and the hand-off
  // (service teardown racing a submit). Surface it instead of leaving the
  // session kQueued forever with no worker coming.
  Status refused = Status::Unavailable(
      "service is shutting down; session not scheduled");
  session->FailQueued(refused);
  Unadmit();
  return refused;
}

Status DiscoveryService::Submit(SessionId id) {
  auto session = FindMutable(id);
  if (session == nullptr) return StaleHandle(id);
  if (Status s = Admit(); !s.ok()) return s;
  if (Status s = session->MarkQueued(); !s.ok()) {
    Unadmit();
    return s;
  }
  return Schedule(session);
}

Status DiscoveryService::SubmitCsv(SessionId id, const std::string& path,
                                   const CsvOptions& options) {
  auto session = FindMutable(id);
  if (session == nullptr) return StaleHandle(id);
  if (Status s = session->SetDeferredCsv(path, options); !s.ok()) return s;
  if (Status s = Admit(); !s.ok()) return s;
  if (Status s = session->MarkQueued(); !s.ok()) {
    Unadmit();
    return s;
  }
  return Schedule(session);
}

Status DiscoveryService::SubmitDataset(SessionId id,
                                       const std::string& dataset_id,
                                       int64_t version) {
  if (Status s = BindDataset(id, dataset_id, version); !s.ok()) return s;
  return Submit(id);
}

void DiscoveryService::RunSession(
    const std::shared_ptr<DiscoverySession>& session) {
  session->Run();
  // Waiters re-check under the lock; taking it here orders the terminal
  // store before their wake-up. The admission slot frees with the same
  // lock hold, so a rejected submitter retrying after Wait() gets in.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --active_;
  }
  terminal_cv_.notify_all();
}

Result<DiscoveryService::PollInfo> DiscoveryService::Poll(
    SessionId id) const {
  auto session = FindMutable(id);
  if (session == nullptr) return StaleHandle(id);
  PollInfo info;
  info.state = session->state();
  info.progress = session->progress();
  if (info.state == SessionState::kFailed) {
    Status status = session->status();
    info.error = status.ToString();
    info.error_code = status.code();
  }
  return info;
}

Status DiscoveryService::Cancel(SessionId id) {
  auto session = FindMutable(id);
  if (session == nullptr) return StaleHandle(id);
  session->RequestCancel();
  // A kCreated session turns terminal synchronously; wake waiters.
  { std::lock_guard<std::mutex> lock(mutex_); }
  terminal_cv_.notify_all();
  return Status::Ok();
}

void DiscoveryService::CancelAll() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, session] : sessions_) session->RequestCancel();
  }
  terminal_cv_.notify_all();
}

Result<SessionState> DiscoveryService::Wait(SessionId id) {
  auto session = FindMutable(id);
  if (session == nullptr) return StaleHandle(id);
  std::unique_lock<std::mutex> lock(mutex_);
  terminal_cv_.wait(lock, [&] { return IsTerminal(session->state()); });
  return session->state();
}

void DiscoveryService::WaitAll() {
  std::vector<std::shared_ptr<DiscoverySession>> live;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live.reserve(sessions_.size());
    for (auto& [id, session] : sessions_) live.push_back(session);
  }
  std::unique_lock<std::mutex> lock(mutex_);
  terminal_cv_.wait(lock, [&] {
    for (const auto& session : live) {
      SessionState state = session->state();
      // Unsubmitted sessions don't block a batch drain.
      if (state != SessionState::kCreated && !IsTerminal(state)) {
        return false;
      }
    }
    return true;
  });
}

Result<std::string> DiscoveryService::ResultJson(SessionId id) const {
  auto session = FindMutable(id);
  if (session == nullptr) return StaleHandle(id);
  if (!IsTerminal(session->state())) {
    return Status::FailedPrecondition(
        "session " + std::to_string(id) + " is " +
        SessionStateName(session->state()) + "; results require a "
        "terminal session (poll or wait first)");
  }
  return session->result_json();
}

Result<std::string> DiscoveryService::TraceJson(SessionId id) const {
  auto session = FindMutable(id);
  if (session == nullptr) return StaleHandle(id);
  return session->trace_json();
}

Result<std::string> DiscoveryService::ResultText(SessionId id) const {
  auto session = FindMutable(id);
  if (session == nullptr) return StaleHandle(id);
  if (!IsTerminal(session->state())) {
    return Status::FailedPrecondition(
        "session " + std::to_string(id) + " is " +
        SessionStateName(session->state()) + "; results require a "
        "terminal session (poll or wait first)");
  }
  return session->result_text();
}

Status DiscoveryService::Destroy(SessionId id) {
  std::shared_ptr<DiscoverySession> session;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return StaleHandle(id);
    session = std::move(it->second);
    sessions_.erase(it);
  }
  // A queued/running worker task holds its own shared_ptr; cancelling
  // makes it finish promptly, after which the object dies with the last
  // reference.
  session->RequestCancel();
  return Status::Ok();
}

int64_t DiscoveryService::num_sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(sessions_.size());
}

void DiscoveryService::SetSharedSink(OdSink* sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sink == nullptr) {
    current_shared_sink_ = nullptr;
    return;
  }
  shared_sinks_.push_back(std::make_unique<MutexOdSink>(sink));
  current_shared_sink_ = shared_sinks_.back().get();
}

}  // namespace fastod
