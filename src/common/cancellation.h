// Cooperative cancellation, the wall-clock deadline, and progress
// reporting for long discovery runs.
//
// An ExecutionControl is shared between a caller (typically through
// api/algorithm.h) and a running engine: the caller flips the cancel flag
// from any thread, or arms the run's one deadline (the "timeout-ms"
// option, which Algorithm::Execute arms here), and the engine polls
// StopRequested() at its safepoints — one check covers both stop
// reasons — and stops cleanly with partial results. Progress flows the
// other way: engines report a coarse [0, 1] fraction (lattice level over
// attribute count) that frontends may display.
//
// The two stop reasons stay distinguishable after the stop. The
// level-wise engines and ORDER flag their partial result cancelled or
// timed_out (read DeadlineExceeded() for the reason); Algorithm::Execute
// turns a passed deadline into a kDeadlineExceeded error, while a cancel
// is a clean early exit.
#ifndef FASTOD_COMMON_CANCELLATION_H_
#define FASTOD_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace fastod {

class ExecutionControl {
 public:
  ExecutionControl() = default;
  ExecutionControl(const ExecutionControl&) = delete;
  ExecutionControl& operator=(const ExecutionControl&) = delete;

  /// Asks the running algorithm to stop at its next check point. Safe to
  /// call from any thread, any number of times.
  void RequestCancel() { cancel_.store(true, std::memory_order_relaxed); }

  bool CancelRequested() const {
    return cancel_.load(std::memory_order_relaxed);
  }

  /// Arms a monotonic deadline `millis` from now (non-positive disarms).
  /// Engines observe it through StopRequested()/DeadlineExceeded() at the
  /// same safepoints as cancellation.
  void SetDeadlineAfterMillis(int64_t millis) {
    if (millis <= 0) {
      deadline_ns_.store(0, std::memory_order_relaxed);
      return;
    }
    deadline_ns_.store(NowNanos() + millis * 1'000'000,
                       std::memory_order_relaxed);
  }

  bool HasDeadline() const {
    return deadline_ns_.load(std::memory_order_relaxed) != 0;
  }

  bool DeadlineExceeded() const {
    int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
    return deadline != 0 && NowNanos() > deadline;
  }

  /// One poll covering both stop reasons; engines check this wherever
  /// they used to check CancelRequested().
  bool StopRequested() const {
    return CancelRequested() || DeadlineExceeded();
  }

  /// Reset for reuse across runs.
  void Reset() {
    cancel_.store(false, std::memory_order_relaxed);
    deadline_ns_.store(0, std::memory_order_relaxed);
    progress_.store(0.0, std::memory_order_relaxed);
  }

  /// Engines report completion as a fraction in [0, 1]; values outside the
  /// range are clamped.
  void ReportProgress(double fraction) {
    if (fraction < 0.0) fraction = 0.0;
    if (fraction > 1.0) fraction = 1.0;
    progress_.store(fraction, std::memory_order_relaxed);
  }

  double Progress() const { return progress_.load(std::memory_order_relaxed); }

 private:
  static int64_t NowNanos() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::atomic<bool> cancel_{false};
  // steady_clock nanos of the armed deadline; 0 = none. Relaxed is
  // enough: a late observation only delays the stop by one poll.
  std::atomic<int64_t> deadline_ns_{0};
  std::atomic<double> progress_{0.0};
};

}  // namespace fastod

#endif  // FASTOD_COMMON_CANCELLATION_H_
