// Deterministic fault injection for robustness tests.
//
// Production code marks the places where the outside world can fail with
// named fault points:
//
//   if (FASTOD_FAULT_POINT("csv.read")) {
//     return Status::IoError("injected fault: csv.read");
//   }
//
// A test-only schedule — the FASTOD_FAULTS environment variable, or
// fault::SetSchedule() from test code — trips a point on its Nth hit:
//
//   FASTOD_FAULTS="csv.read:throw:3,httpd.write:fail:1"
//
// Three actions exist. "throw" raises fault::FaultInjected from inside
// the fault point (exercising the exception containment at worker and
// handler boundaries); "fail" makes FASTOD_FAULT_POINT return true, and
// the site degrades through its own coded-error path (a Status, a false
// write, a refused insert). Sites with no coded failure path may ignore
// the return value and are then only reachable via "throw". "sleep" is
// a latency fault: from the Nth hit onward, every hit stalls the calling
// thread for a short pseudo-random duration derived deterministically
// from the hit index — it never trips the site's failure path. The
// determinism stress tests use it to randomize the completion order of
// the lattice engines' node tasks at "lattice.node" and then assert
// output is order-independent (tests/lattice_node_test.cc).
//
// With no schedule installed — every production run — a fault point is
// one relaxed atomic load and a never-taken branch. The registry itself
// is mutex-guarded, but that slow path only runs while a schedule is
// active (tests).
#ifndef FASTOD_COMMON_FAULT_H_
#define FASTOD_COMMON_FAULT_H_

#include <atomic>
#include <stdexcept>
#include <string>

namespace fastod {
namespace fault {

/// The exception a "throw" schedule raises from inside a fault point.
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(const std::string& point)
      : std::runtime_error("injected fault at '" + point + "'"),
        point_(point) {}
  const std::string& point() const { return point_; }

 private:
  std::string point_;
};

/// True while any schedule is active. Internal to the Check fast path.
extern std::atomic<bool> g_faults_active;

/// Slow path: records the hit and applies the scheduled action, throwing
/// FaultInjected for "throw" and returning true for "fail".
bool CheckSlow(const char* point);

/// The fault-point implementation (use FASTOD_FAULT_POINT instead).
inline bool Check(const char* point) {
  if (!g_faults_active.load(std::memory_order_relaxed)) return false;
  return CheckSlow(point);
}

/// Installs a schedule from `spec` ("point:action:N" comma-separated;
/// action is "throw", "fail", or "sleep"; N is the 1-based hit that
/// trips — the FASTOD_FAULTS syntax). "throw"/"fail" fire exactly once,
/// on hit N; "sleep" fires on every hit from N onward. Replaces any
/// previous schedule and resets all hit counters. Returns false (and
/// installs nothing) on a malformed spec. An empty spec clears the
/// schedule.
bool SetSchedule(const std::string& spec);

/// Removes the active schedule and resets hit counters.
void Clear();

/// Hits observed at `point` since the schedule was installed (0 with no
/// schedule: the fast path does not count). For test assertions.
int64_t Hits(const char* point);

/// Re-reads FASTOD_FAULTS from the environment (also done once at
/// process start). Returns false on a malformed value.
bool ReloadFromEnv();

}  // namespace fault
}  // namespace fastod

/// Evaluates to true when a "fail" is scheduled for this hit of `point`;
/// throws fault::FaultInjected when a "throw" is scheduled; false (a
/// single predictable branch) otherwise.
#define FASTOD_FAULT_POINT(point) ::fastod::fault::Check(point)

#endif  // FASTOD_COMMON_FAULT_H_
