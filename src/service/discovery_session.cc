#include "service/discovery_session.h"

#include <exception>
#include <utility>

#include "obs/metrics.h"

namespace fastod {

const char* SessionStateName(SessionState state) {
  switch (state) {
    case SessionState::kCreated:
      return "created";
    case SessionState::kQueued:
      return "queued";
    case SessionState::kRunning:
      return "running";
    case SessionState::kDone:
      return "done";
    case SessionState::kFailed:
      return "failed";
    case SessionState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

DiscoverySession::DiscoverySession(std::unique_ptr<Algorithm> algorithm)
    : algorithm_(std::move(algorithm)) {
  algorithm_->SetControl(&control_);
}

Status DiscoverySession::SetOption(const std::string& name,
                                   const std::string& value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != SessionState::kCreated) {
    return Status::FailedPrecondition(
        "session is " + std::string(SessionStateName(state_)) +
        "; options may only change before submission");
  }
  return algorithm_->SetOption(name, value);
}

Status DiscoverySession::BindableLocked() const {
  // Data freezes at submission: a source swapped in after queueing would
  // silently redirect the pending run to the wrong dataset.
  if (state_ == SessionState::kCreated) return Status::Ok();
  return Status::FailedPrecondition(
      "session is " + std::string(SessionStateName(state_)) +
      "; data may only be bound before submission");
}

Status DiscoverySession::SetDeferredCsv(std::string path,
                                        CsvOptions options) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Status s = BindableLocked(); !s.ok()) return s;
  has_deferred_csv_ = true;
  csv_path_ = std::move(path);
  csv_options_ = options;
  return Status::Ok();
}

Status DiscoverySession::BindDataset(
    std::shared_ptr<const LoadedDataset> dataset) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Status s = BindableLocked(); !s.ok()) return s;
  return algorithm_->BindDataset(std::move(dataset));
}

void DiscoverySession::SetSink(OdSink* sink) { algorithm_->SetSink(sink); }

Status DiscoverySession::MarkQueued() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != SessionState::kCreated) {
    return Status::FailedPrecondition(
        "session is " + std::string(SessionStateName(state_)) +
        "; it can be submitted only once");
  }
  if (!algorithm_->has_data() && !has_deferred_csv_) {
    return Status::FailedPrecondition(
        "session has no data; bind a dataset or a deferred CSV before "
        "submitting");
  }
  state_ = SessionState::kQueued;
  return Status::Ok();
}

void DiscoverySession::FailQueued(Status status) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != SessionState::kQueued) return;
  // Recorded before the state flips, as in Finish: a poller that sees
  // the terminal state also sees its metrics and trace.
  RecordObservability(SessionState::kFailed);
  state_ = SessionState::kFailed;
  status_ = std::move(status);
}

void DiscoverySession::Run() {
  bool load_csv = false;
  std::string path;
  CsvOptions csv_options;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A cancel that arrived while queued wins: skip the run entirely.
    if (state_ != SessionState::kQueued) return;
    if (control_.CancelRequested()) {
      state_ = SessionState::kCancelled;
      return;
    }
    state_ = SessionState::kRunning;
    if (has_deferred_csv_ && !algorithm_->has_data()) {
      load_csv = true;
      path = csv_path_;
      csv_options = csv_options_;
    }
  }
  // Exceptions from the load or the engine (bad_alloc, a third-party
  // backend throwing) become a kFailed session, never an unwinding worker
  // thread: the library's no-throw contract holds at this boundary.
  const bool observe = obs::Enabled();
  Status executed;
  try {
    if (load_csv) {
      // Session-local: the dataset lives as long as the algorithm binds it.
      Result<std::shared_ptr<const LoadedDataset>> dataset =
          LoadedDataset::LoadCsvFile(path, path, csv_options,
                                     observe ? &trace_ : nullptr);
      Status s = dataset.ok() ? algorithm_->BindDataset(*std::move(dataset))
                              : dataset.status();
      if (!s.ok()) {
        Finish(SessionState::kFailed, s);
        return;
      }
    }
    double start = trace_.Now();
    executed = algorithm_->Execute();
    if (observe) {
      trace_.RecordSpan("execute", start, trace_.Now() - start);
      // The level-wise engines time each lattice level; replay those
      // clocks as back-to-back child spans of the execute phase.
      double cursor = start;
      for (const obs::LevelStats& level : algorithm_->stats().levels) {
        trace_.RecordSpan("level[" + std::to_string(level.level) + "]",
                          cursor, level.seconds);
        cursor += level.seconds;
      }
    }
  } catch (const std::exception& e) {
    Finish(SessionState::kFailed,
           Status::Internal(std::string("engine threw: ") + e.what()));
    return;
  } catch (...) {
    Finish(SessionState::kFailed,
           Status::Internal("engine threw a non-standard exception"));
    return;
  }
  if (!executed.ok()) {
    Finish(SessionState::kFailed, executed);
    return;
  }
  // Engines treat cancellation as a clean early stop, not an error; the
  // session keeps whatever partial results they rendered.
  Finish(control_.CancelRequested() ? SessionState::kCancelled
                                    : SessionState::kDone,
         Status::Ok());
}

void DiscoverySession::Finish(SessionState terminal, Status status) {
  std::string json;
  std::string text;
  if (terminal != SessionState::kFailed) {
    json = algorithm_->ResultJson();
    text = algorithm_->ResultText();
  }
  // Record first, then publish: a poller that sees the terminal state
  // can already scrape the session's metric families and read its
  // engine stats in the trace.
  RecordObservability(terminal);
  std::lock_guard<std::mutex> lock(mutex_);
  state_ = terminal;
  status_ = std::move(status);
  result_json_ = std::move(json);
  result_text_ = std::move(text);
}

void DiscoverySession::RecordObservability(SessionState terminal) {
  if (!obs::Enabled()) return;
  const obs::EngineStats& stats = algorithm_->stats();
  trace_.SetEngineStats(stats);

  obs::Registry& registry = obs::Registry::Global();
  const std::string& algorithm = algorithm_->name();
  registry
      .GetCounter("fastod_sessions_total",
                  "Discovery sessions reaching a terminal state",
                  {{"algorithm", algorithm},
                   {"state", SessionStateName(terminal)}})
      ->Inc();
  if (terminal == SessionState::kFailed) return;  // nothing ran to report

  registry
      .GetHistogram("fastod_session_execute_seconds",
                    "Engine wall-clock per completed session",
                    obs::LatencyBucketsSeconds(), {{"algorithm", algorithm}})
      ->Observe(algorithm_->execute_seconds());
  const obs::Labels by_algorithm = {{"algorithm", algorithm}};
  registry
      .GetCounter("fastod_lattice_nodes_total",
                  "Lattice nodes visited by the search", by_algorithm)
      ->Inc(stats.nodes_visited);
  registry
      .GetCounter("fastod_lattice_nodes_pruned_total",
                  "Lattice nodes removed by pruning rules", by_algorithm)
      ->Inc(stats.nodes_pruned);
  registry
      .GetCounter("fastod_validation_checks_total",
                  "Partition validation scans performed",
                  {{"algorithm", algorithm}, {"kind", "constancy"}})
      ->Inc(stats.constancy_checks);
  registry
      .GetCounter("fastod_validation_checks_total",
                  "Partition validation scans performed",
                  {{"algorithm", algorithm}, {"kind", "swap"}})
      ->Inc(stats.swap_checks);
  registry
      .GetCounter("fastod_swap_sample_refutations_total",
                  "Swap checks refuted by a swap in the witness sample, "
                  "before any full scan",
                  by_algorithm)
      ->Inc(stats.swap_sample_refutes);
  registry
      .GetCounter("fastod_ods_emitted_total",
                  "Dependencies reported by finished sessions",
                  by_algorithm)
      ->Inc(stats.ods_emitted);
  registry
      .GetCounter("fastod_partition_cache_gets_total",
                  "PartitionCache lookups served", by_algorithm)
      ->Inc(stats.partition_cache_gets);
  registry
      .GetCounter("fastod_partition_cache_puts_total",
                  "Partitions built or shared into the PartitionCache",
                  by_algorithm)
      ->Inc(stats.partition_cache_puts);
  registry
      .GetCounter("fastod_partition_reuses_total",
                  "Partitions shared with a parent lattice node instead of "
                  "built by a refinement",
                  by_algorithm)
      ->Inc(stats.partitions_reused);
  registry
      .GetCounter("fastod_tasks_spawned_total",
                  "Node tasks run by a parallel validate batch, one per "
                  "lattice node",
                  by_algorithm)
      ->Inc(stats.tasks_spawned);
  registry
      .GetCounter("fastod_tasks_stolen_total",
                  "Node tasks of a parallel validate batch that a pool "
                  "worker ran rather than the calling thread",
                  by_algorithm)
      ->Inc(stats.tasks_stolen);
  // Worker-busy fraction per lattice level, from the most recent
  // parallel run of this algorithm (gauge semantics: last run wins).
  for (const obs::LevelStats& level : stats.levels) {
    if (level.occupancy <= 0.0) continue;
    registry
        .GetGauge("fastod_task_graph_level_occupancy_permille",
                  "Worker-busy fraction (in 1/1000ths) while the thread "
                  "pool processed one lattice level (most recent run)",
                  {{"algorithm", algorithm},
                   {"level", std::to_string(level.level)}})
        ->Set(static_cast<int64_t>(level.occupancy * 1000.0));
  }
}

SessionState DiscoverySession::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

void DiscoverySession::RequestCancel() {
  control_.RequestCancel();
  std::lock_guard<std::mutex> lock(mutex_);
  // Sessions that never reached a worker turn terminal immediately so
  // waiters don't block on a run that will never happen. kQueued stays —
  // the worker task still owns the kQueued→terminal transition.
  if (state_ == SessionState::kCreated) state_ = SessionState::kCancelled;
}

Status DiscoverySession::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return status_;
}

const std::string& DiscoverySession::result_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return result_json_;
}

const std::string& DiscoverySession::result_text() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return result_text_;
}

double DiscoverySession::execute_seconds() const {
  return algorithm_->execute_seconds();
}

}  // namespace fastod
