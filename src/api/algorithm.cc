#include "api/algorithm.h"

#include <limits>
#include <utility>

#include "common/timer.h"

namespace fastod {

Algorithm::Algorithm(std::string name, std::string description)
    : name_(std::move(name)), description_(std::move(description)) {
  // Registered here so *every* engine — including ones with no native
  // checkpointing — carries the deadline contract: exceeding it turns
  // Execute() into a kDeadlineExceeded error. Engines with checkpoints
  // stop mid-run (StopRequested at cancellation safepoints); the rest
  // are caught at the Execute() boundary.
  options_.AddInt64("timeout-ms", &timeout_ms_,
                    "deadline in milliseconds; exceeding it stops the "
                    "run and fails it with DeadlineExceeded (0 = none)",
                    0, std::numeric_limits<int64_t>::max());
}

Status Algorithm::BindDataset(std::shared_ptr<const LoadedDataset> dataset) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("dataset must be non-null");
  }
  // The parse/encode/partition work happened once, when the dataset was
  // built; it is shared by reference here.
  dataset_ = std::move(dataset);
  executed_ = false;
  return Status::Ok();
}

Status Algorithm::Execute() {
  if (!has_data()) {
    return Status::FailedPrecondition(
        "Execute() requires BindDataset() first (algorithm '" + name_ + "')");
  }
  // (Re)arm the deadline for this run; 0 disarms. Engines honor it at
  // the cancellation safepoints of control().
  control_->SetDeadlineAfterMillis(timeout_ms_);
  stats_ = obs::EngineStats();
  WallTimer timer;
  Status status = ExecuteInternal();
  execute_seconds_ = timer.ElapsedSeconds();
  if (status.ok() && control_->DeadlineExceeded()) {
    status = Status::DeadlineExceeded(
        "run exceeded timeout-ms=" + std::to_string(timeout_ms_) +
        " (algorithm '" + name_ + "')");
  }
  executed_ = status.ok();
  return status;
}

}  // namespace fastod
