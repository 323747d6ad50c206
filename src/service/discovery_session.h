// One discovery job as a long-lived, observable object.
//
// A DiscoverySession owns everything one run needs — the configured
// Algorithm, its ExecutionControl, an optional OdSink, the data source,
// and the rendered result cache — behind a small thread-safe state
// machine:
//
//   kCreated ──Submit──▶ kQueued ──worker──▶ kRunning ──▶ kDone
//                                                     └──▶ kFailed
//                (RequestCancel at any point)         └──▶ kCancelled
//
// The owner (DiscoveryService, or a direct embedder) configures and binds
// data from one thread, then hands Run() to a worker; after that, every
// accessor here is safe to call concurrently with the run: state(),
// progress() and RequestCancel() poll/flip atomics shared with the engine,
// and the result accessors return the cache written under the state mutex
// when the session turned terminal. Terminal sessions are immutable.
//
// Cancellation is cooperative (common/cancellation.h): a cancel requested
// while the engine is mid-run is honored at its next level boundary and
// the session keeps the partial results the engine reported; a cancel
// before the worker picks the session up skips the run entirely.
#ifndef FASTOD_SERVICE_DISCOVERY_SESSION_H_
#define FASTOD_SERVICE_DISCOVERY_SESSION_H_

#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "api/algorithm.h"
#include "common/cancellation.h"
#include "common/status.h"
#include "data/csv.h"
#include "data/dataset_store.h"
#include "obs/trace.h"

namespace fastod {

enum class SessionState : int {
  kCreated = 0,    // configured, no run scheduled yet
  kQueued = 1,     // waiting for a worker
  kRunning = 2,    // Execute() in flight
  kDone = 3,       // terminal: completed, results cached
  kFailed = 4,     // terminal: load or execute error, see status()
  kCancelled = 5,  // terminal: cancel honored, partial results cached
};

/// True for the three states no session ever leaves.
inline bool IsTerminal(SessionState state) {
  return state == SessionState::kDone || state == SessionState::kFailed ||
         state == SessionState::kCancelled;
}

/// "created", "queued", ... for logs and JSON.
const char* SessionStateName(SessionState state);

class DiscoverySession {
 public:
  /// Wraps an algorithm instance (typically fresh from a registry).
  explicit DiscoverySession(std::unique_ptr<Algorithm> algorithm);

  DiscoverySession(const DiscoverySession&) = delete;
  DiscoverySession& operator=(const DiscoverySession&) = delete;

  // ---- Configuration (before Submit/Run only) -----------------------
  Status SetOption(const std::string& name, const std::string& value);
  /// Defers the CSV read into Run() (a worker thread), so a batch of
  /// sessions parallelizes parsing and encoding too. Run() builds a
  /// session-local dataset from the file; read errors surface through
  /// state()/status() as kFailed.
  Status SetDeferredCsv(std::string path, CsvOptions options);
  /// Binds a shared preprocessed dataset (data/dataset_store.h) by
  /// reference — no parse, encode, or copy. The session pins the dataset
  /// (keeps it alive and ineligible for store eviction) until destroyed.
  Status BindDataset(std::shared_ptr<const LoadedDataset> dataset);
  /// Attaches a streaming consumer for the run. The sink must outlive the
  /// session's terminal transition; see the OdSink threading contract.
  void SetSink(OdSink* sink);

  // ---- Execution ----------------------------------------------------
  /// Marks the session queued; fails if it already left kCreated.
  Status MarkQueued();
  /// Moves a *queued* session straight to kFailed with `status` — the
  /// recovery path when Submit accepted the session but could not hand
  /// it to a worker (pool shut down). No-op in any other state.
  void FailQueued(Status status);
  /// Runs the deferred load (if any) + Execute on the calling thread and
  /// moves the session to a terminal state. Called once, by the worker.
  void Run();

  // ---- Observation (any thread) -------------------------------------
  SessionState state() const;
  /// Engine-reported completion fraction in [0, 1].
  double progress() const { return control_.Progress(); }
  /// Flags the run to stop at its next check point (or never start).
  void RequestCancel();
  /// The error that made the session kFailed; OK otherwise.
  Status status() const;

  // ---- Results (terminal states only; empty before) -----------------
  /// Cached Algorithm::ResultJson() / ResultText(). For kCancelled these
  /// hold the partial results the engine reported; for kFailed they are
  /// empty. Stable until the session is destroyed.
  const std::string& result_json() const;
  const std::string& result_text() const;
  /// Engine wall-clock of the completed run.
  double execute_seconds() const;

  const Algorithm& algorithm() const { return *algorithm_; }

  // ---- Observability ------------------------------------------------
  /// The session's trace (obs/trace.h): phase spans recorded by Run()
  /// (csv.read, csv.tokenize, encode, partitions.level1, execute,
  /// level[k]) plus the engine's search counters, captured when the run
  /// finishes. Safe to render from any thread at any time; spans appear
  /// as the run passes through them.
  /// Empty when metrics are disabled (FASTOD_METRICS=off).
  const obs::TraceRecorder& trace() const { return trace_; }
  std::string trace_json() const { return trace_.ToJson(); }

 private:
  /// OK while data may still be bound (kCreated). Caller holds mutex_.
  Status BindableLocked() const;
  void Finish(SessionState terminal, Status status);
  /// Publishes the terminal transition to the global metrics registry
  /// and copies the engine's counters into the trace. Runs before the
  /// terminal state is stored, so a poller that sees it sees both.
  void RecordObservability(SessionState terminal);

  std::unique_ptr<Algorithm> algorithm_;
  ExecutionControl control_;
  obs::TraceRecorder trace_;  // internally synchronized

  mutable std::mutex mutex_;
  SessionState state_ = SessionState::kCreated;  // guarded by mutex_
  Status status_;                                // guarded by mutex_
  std::string result_json_;                      // guarded by mutex_
  std::string result_text_;                      // guarded by mutex_

  // Deferred CSV source; consumed by Run() before Execute.
  bool has_deferred_csv_ = false;
  std::string csv_path_;
  CsvOptions csv_options_;
};

}  // namespace fastod

#endif  // FASTOD_SERVICE_DISCOVERY_SESSION_H_
