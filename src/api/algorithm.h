// The unified discovery-algorithm interface.
//
// Every engine in src/algo/ is exposed through one abstract Algorithm with
// a fixed lifecycle:
//
//   auto dataset = DatasetStore::Global().PutCsvFile("f", "f.csv");
//   auto algo = AlgorithmRegistry::Default().Create("fastod");   // factory
//   (*algo)->SetOption("threads", "4");                          // configure
//   (*algo)->BindDataset(*dataset);                              // bind data
//   (*algo)->Execute();                                          // run
//   std::cout << (*algo)->ResultText();                          // render
//
// Configuration goes through the typed option registry (api/option.h), so
// frontends need no compile-time knowledge of any engine's options struct
// and can generate usage/help text from metadata. Output can stream
// through an OdSink (api/od_sink.h) instead of materializing; long runs
// can be cancelled and report coarse progress through an ExecutionControl.
// Data arrives in one way only: a LoadedDataset (data/dataset_store.h),
// the relation encoded once with its level-1 partitions prebuilt.
//
// Threading: an Algorithm object is single-driver — exactly one thread
// may move it through the lifecycle (SetOption → BindDataset → Execute →
// Result*), though different phases may run on different threads as long
// as they do not overlap (the service layer configures on API threads
// and executes on a pool worker). Engines configured with threads > 1
// create internal workers for the duration of Execute(); those never
// touch the Algorithm object itself, and every cross-thread contract the
// caller can observe (sink emission order, stats) is documented on the
// member it applies to. See docs/CONCURRENCY.md for the full contract.
//
// Adapters for the concrete engines live in api/engines.h; the string-keyed
// factory in api/registry.h.
#ifndef FASTOD_API_ALGORITHM_H_
#define FASTOD_API_ALGORITHM_H_

#include <memory>
#include <string>
#include <vector>

#include "api/option.h"
#include "common/cancellation.h"
#include "common/status.h"
#include "data/dataset_store.h"
#include "obs/trace.h"

namespace fastod {

class OdSink;

class Algorithm {
 public:
  virtual ~Algorithm() = default;
  Algorithm(const Algorithm&) = delete;
  Algorithm& operator=(const Algorithm&) = delete;

  /// Registry key ("fastod", "tane", ...).
  const std::string& name() const { return name_; }
  /// One-line summary for usage text.
  const std::string& description() const { return description_; }

  // ---- Options ------------------------------------------------------
  /// Parses and applies one option. Unknown names and malformed values
  /// are errors; values apply to the next Execute().
  Status SetOption(const std::string& option_name,
                   const std::string& value) {
    return options_.Set(option_name, value);
  }
  /// All configurable option names, in registration order.
  std::vector<std::string> GetNeededOptions() const {
    return options_.Names();
  }
  /// Help text for this algorithm's options, one per line.
  std::string DescribeOptions() const { return options_.Describe(); }
  const OptionInfo* FindOption(const std::string& option_name) const {
    return options_.Find(option_name);
  }

  // ---- Lifecycle ----------------------------------------------------
  /// Binds a shared, already-preprocessed dataset (data/dataset_store.h):
  /// no copy of the encoding or level-1 partitions is made, and holding
  /// the pointer pins the dataset for the algorithm's lifetime. Every
  /// engine seeds its level-1 partitions from the dataset's prebuilt
  /// ones (see prebuilt_singletons()).
  Status BindDataset(std::shared_ptr<const LoadedDataset> dataset);
  bool has_data() const { return dataset_ != nullptr; }
  /// The bound relation, or nullptr before BindDataset. Stable for the
  /// algorithm's lifetime once data is bound — frontends that render
  /// streamed ODs (attribute indices, binding codes) back to names and
  /// values hold onto it.
  const EncodedRelation* loaded_relation() const {
    return has_data() ? &relation() : nullptr;
  }

  /// Runs the engine on the bound data. Requires BindDataset; may be
  /// called again after reconfiguring with SetOption. Cancellation
  /// (through the attached ExecutionControl) is not an error: engines
  /// stop cleanly and report partial results. A passed "timeout-ms"
  /// deadline is: the engine stops at its next safepoint and Execute()
  /// returns kDeadlineExceeded.
  Status Execute();
  bool executed() const { return executed_; }

  /// Wall-clock of the last Execute().
  double execute_seconds() const { return execute_seconds_; }

  // ---- Streaming / control ------------------------------------------
  /// Attaches a streaming consumer for discovered dependencies. Must
  /// outlive Execute(). Engines that can avoid materializing their result
  /// vectors do so when a sink is attached (see api/od_sink.h).
  ///
  /// Thread affinity: sink callbacks arrive on the thread that called
  /// Execute(), one at a time, at any thread count — multi-threaded
  /// engines run their node tasks on workers but merge and emit on the
  /// caller (docs/CONCURRENCY.md). Emission order is canonical and
  /// thread-count-independent.
  void SetSink(OdSink* sink) { sink_ = sink; }
  /// Attaches a cancellation/progress channel. Must outlive Execute().
  /// RequestCancel/StopRequested are safe from any thread at any time;
  /// multi-threaded engines poll it at task boundaries, so observance
  /// latency is one lattice-node task, same as the serial safepoints.
  /// Null detaches it: the algorithm falls back to a control of its own,
  /// which still carries the "timeout-ms" deadline.
  void SetControl(ExecutionControl* control) {
    control_ = control != nullptr ? control : &own_control_;
  }

  // ---- Results ------------------------------------------------------
  /// Human-readable result summary; valid after Execute().
  virtual std::string ResultText() const = 0;
  /// Machine-readable result in the stable JSON shape of report/report.h.
  virtual std::string ResultJson() const = 0;

  /// Engine search telemetry of the last Execute() (obs/trace.h): lattice
  /// nodes visited/pruned (per level for the level-wise engines),
  /// swap/split validation calls, partition-cache traffic, ODs emitted.
  /// The engines accumulate these internally anyway; adapters copy them
  /// out once per run, so reading this costs the hot path nothing.
  /// Zeroed until the first Execute() completes.
  const obs::EngineStats& stats() const { return stats_; }

 protected:
  Algorithm(std::string name, std::string description);

  /// Subclasses register their options here, in their constructor.
  OptionRegistry& options() { return options_; }

  /// Engine invocation; data is bound and the wall clock is running.
  virtual Status ExecuteInternal() = 0;

  const EncodedRelation& relation() const { return dataset_->relation(); }
  /// The bound dataset.
  const LoadedDataset& dataset() const { return *dataset_; }
  /// The bound dataset's prebuilt level-1 partitions. Adapters pass this
  /// straight into their engine so every engine seeds Π*_{A} uniformly
  /// instead of rebuilding.
  const std::vector<StrippedPartition>* prebuilt_singletons() const {
    return &dataset_->singleton_partitions();
  }
  OdSink* sink() const { return sink_; }
  /// The attached control, else the algorithm's own; never null.
  ExecutionControl* control() const { return control_; }

  /// Where ExecuteInternal() deposits the run's search telemetry
  /// (Execute() clears it before each run).
  obs::EngineStats& mutable_stats() { return stats_; }

 private:
  std::string name_;
  std::string description_;
  OptionRegistry options_;
  std::shared_ptr<const LoadedDataset> dataset_;
  OdSink* sink_ = nullptr;
  ExecutionControl own_control_;
  ExecutionControl* control_ = &own_control_;
  // The run's wall-clock deadline (the "timeout-ms" option every engine
  // inherits), armed on control() by Execute(): the engine stops at its
  // next safepoint and Execute() returns kDeadlineExceeded. 0 = none.
  int64_t timeout_ms_ = 0;
  obs::EngineStats stats_;
  bool executed_ = false;
  double execute_seconds_ = 0.0;
};

}  // namespace fastod

#endif  // FASTOD_API_ALGORITHM_H_
