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

}  // namespace fastod

#endif  // FASTOD_COMMON_TIMER_H_
