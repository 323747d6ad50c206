// Wall-clock timing utilities used by the discovery algorithms (per-level
// statistics, Exp-7) and the benchmark harness.
#ifndef FASTOD_COMMON_TIMER_H_
#define FASTOD_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace fastod {

/// Monotonic wall-clock stopwatch. Starts running on construction.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction or the last Restart().
  double ElapsedSeconds() const;
  int64_t ElapsedMillis() const;
  int64_t ElapsedMicros() const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A soft wall-clock budget: algorithms poll Exceeded() at their safepoints
/// and abort cleanly, mirroring the paper's "* 5h" timeout handling.
class Deadline {
 public:
  /// A deadline that never expires.
  Deadline() : budget_seconds_(-1.0) {}

  /// A deadline `budget_seconds` from now. Non-positive means "no limit"
  /// except via the explicit Infinite() factory.
  static Deadline After(double budget_seconds) {
    Deadline d;
    d.budget_seconds_ = budget_seconds;
    return d;
  }
  static Deadline Infinite() { return Deadline(); }

  bool Exceeded() const {
    return budget_seconds_ >= 0.0 && timer_.ElapsedSeconds() > budget_seconds_;
  }

 private:
  WallTimer timer_;
  double budget_seconds_;
};

}  // namespace fastod

#endif  // FASTOD_COMMON_TIMER_H_
