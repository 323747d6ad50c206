// Shared pieces of the benchmark binary: spans, output fingerprints,
// resident-memory high-water marks, summary statistics, and the result
// record every run prints.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace fastod {
class JsonValue;
class Schema;
struct FastodResult;
struct TaneResult;
}  // namespace fastod

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Command line of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "none";
  std::string out_dir = ".";
};

/// CPUs this process may run on (what `nproc` prints). Engine threads and
/// the client count derive from it.
int Nproc();

// ------------------------------------------------------------------ spans

/// In-memory span recorder: name, start, end, parent span and operation
/// id per call into a layer, kept until the run ends and then written
/// out. Only threads that switched tracing on record, so a traced run can
/// interleave traced and untraced operations and compare their latency.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;  // since the tracer was created
    double end_ms = 0.0;
    int parent = -1;  // index into spans(); -1 for an operation's root
    int64_t op = 0;
  };

  /// Records one call, from construction to destruction, as a child of
  /// the innermost open span of the calling thread.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  // null when the thread is not tracing
    int index_ = -1;
  };

  /// Per-thread switch, off by default. Flip it only between operations.
  static void SetThreadTracing(bool on);

  std::vector<Span> spans() const;
  /// One JSON object per line per span.
  bool WriteJsonl(const std::string& path) const;

 private:
  int Begin(const char* name, int64_t op);
  void End(int index);

  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// One traced operation: its wall time, the part its direct children
/// cover, and the self time (duration minus its children's) summed per
/// span name.
struct OpProfile {
  std::string root;
  double wall_ms = 0.0;
  double covered_ms = 0.0;
  std::map<std::string, double> self_ms;
};
std::vector<OpProfile> ProfileOps(const std::vector<Tracer::Span>& spans);

/// Median self time of span `name` over the profiles whose root is
/// `root` (any root when empty) and that contain the span.
double MedianSelfMs(const std::vector<OpProfile>& profiles,
                    const std::string& root, const std::string& name);

// ----------------------------------------------------------- fingerprints

/// Order-insensitive digest of an OD set with per-kind counts: the
/// wrapping sum of a 64-bit hash of each OD's canonical text (context
/// names sorted). Equal sets give equal fingerprints in any emission
/// order; a missing, extra or altered OD changes it.
struct Fingerprint {
  uint64_t digest = 0;
  int64_t constancy = 0;
  int64_t compatibility = 0;

  void AddConstancy(std::vector<std::string> context,
                    const std::string& attribute);
  void AddCompatibility(std::vector<std::string> context,
                        const std::string& a, const std::string& b);
  /// This set with `added` joined and `removed` taken out; exact when
  /// `removed` is part of the union.
  Fingerprint Apply(const Fingerprint& added,
                    const Fingerprint& removed) const;
  bool operator==(const Fingerprint& other) const = default;
  std::string ToString() const;
};

Fingerprint FingerprintOf(const fastod::FastodResult& result,
                          const fastod::Schema& schema);
Fingerprint FingerprintOf(const fastod::TaneResult& result,
                          const fastod::Schema& schema);
/// From report JSON: "constancy_ods"/"compatibility_ods" (the fastod and
/// incremental shape) or "fds" (tane). False when the text does not
/// parse, has none of those arrays, or holds a malformed entry.
bool FingerprintReport(const std::string& json, Fingerprint* out);
/// Adds one streamed NDJSON event: an OD event to `added`, a "revoked"
/// event's OD to `revoked`. False for any other or a malformed event.
bool AddStreamEvent(const fastod::JsonValue& event, Fingerprint* added,
                    Fingerprint* revoked);

// ----------------------------------------------------------------- memory

/// Resident-set high-water mark over an interval, in bytes.
///
/// Method: reset the kernel's mark by writing "5" to
/// /proc/self/clear_refs, and read VmHWM from /proc/self/status at the
/// end. Fallback when clear_refs is not writable: a thread samples VmRSS
/// every millisecond and keeps the maximum, which can miss a peak shorter
/// than a millisecond.
class PeakRss {
 public:
  /// `trim_heap` first returns freed heap pages to the kernel
  /// (malloc_trim), so growth across the interval is measured from the
  /// same baseline every time. Timed phases do not trim: the operations
  /// would pay the page faults.
  explicit PeakRss(bool trim_heap);
  ~PeakRss();
  PeakRss(const PeakRss&) = delete;
  PeakRss& operator=(const PeakRss&) = delete;

  /// RSS when the interval began.
  int64_t base_bytes() const { return base_bytes_; }
  /// Highest RSS since the interval began.
  int64_t PeakBytes() const;
  /// False when the sampling fallback is in use.
  bool kernel_reset() const { return kernel_reset_; }

 private:
  int64_t base_bytes_ = 0;
  bool kernel_reset_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> sampled_max_{0};
  std::thread sampler_;  // last: it reads the members above
};

// ------------------------------------------------------------- statistics

double Median(std::vector<double> values);
/// The highest percentile with at least ten samples beyond it, i.e. the
/// 11th-largest sample; with fewer than 100 samples, where that would be
/// below p90, p80 by nearest rank. Sets `*percentile` to the percentile
/// reported.
double Tail(std::vector<double> values, double* percentile);

// ----------------------------------------------------------------- result

/// Metrics of one run and the evidence behind them. Used from the main
/// thread only. Print() emits a readable table, one detail line
/// (environment stamp, sample counts, notes, first errors) that is also
/// written to the output directory, and last the one-line JSON result.
class RunResult {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              int64_t samples = 1);
  void Note(const std::string& key, double value);
  void Note(const std::string& key, const std::string& value);
  /// One attempted timed operation; a non-empty `error` counts it failed.
  void Count(const std::string& error);
  /// A set-up or reference check failed: the run is not correct.
  void Inconsistent(const std::string& what);
  /// Records which memory method the run's PeakRss intervals used.
  void MemoryMethod(const PeakRss& probe);

  int64_t attempted() const { return attempted_; }
  double SuccessRate() const;
  /// Prints the run; false (and no result line) when nothing was
  /// attempted.
  bool Print(const Args& args) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    int64_t samples;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;  // JSON values
  std::vector<std::string> errors_;
  std::string rss_method_ = "none";
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool consistent_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
