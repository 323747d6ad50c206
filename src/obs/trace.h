// Per-session trace spans and engine-level search telemetry.
//
// A TraceRecorder collects two kinds of evidence about one discovery
// session:
//
//   * timed spans — named phases (csv.parse, encode, execute, level[k])
//     with start offsets relative to the recorder's creation, recorded by
//     the code that runs the phase;
//   * engine stats — the lattice-search counters every engine already
//     accumulates internally (nodes visited/pruned per level, swap/split
//     validation calls, partition-cache traffic, ODs emitted), copied out
//     once at the end of Execute() through Algorithm::stats(), so the
//     search hot path pays nothing beyond the counters it always kept.
//
// The recorder is written by the session's worker thread and read (as
// JSON) by HTTP scrape threads, so all access is mutex-guarded; none of
// it is on a per-node path.
#ifndef FASTOD_OBS_TRACE_H_
#define FASTOD_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"

namespace fastod {
namespace obs {

/// Lattice counters for one level of the search (fastod family; other
/// engines leave per-level detail empty and fill totals only).
struct LevelStats {
  int level = 0;
  int64_t nodes = 0;             // lattice nodes visited at this level
  int64_t nodes_pruned = 0;      // removed afterwards (Lemma 11)
  int64_t constancy_checks = 0;  // split/FD-side validations
  int64_t swap_checks = 0;       // swap/OCD-side validations
  int64_t key_prune_hits = 0;    // validations skipped via Lemmas 12-13
  int64_t ods_found = 0;
  double seconds = 0.0;
  /// Worker-busy fraction while the parallel batches processed this
  /// level, in [0, 1]; 0 for threads=1 runs and engines that do not
  /// measure it.
  double occupancy = 0.0;
  /// Swap checks refuted by a swap in the witness sample before any full
  /// scan (fastod's kAuto swap method; partition/sorted_partition.h).
  int64_t swap_sample_refutes = 0;
  /// Nodes whose partition was shared with a parent instead of built by
  /// a refinement (partition/partition_cache.h, Derive).
  int64_t partitions_reused = 0;
};

/// Engine totals for one Execute(). Engines fill the counters they
/// track; absent notions stay zero (e.g. TANE has no swap checks).
struct EngineStats {
  int levels_processed = 0;
  int64_t nodes_visited = 0;
  int64_t nodes_pruned = 0;
  int64_t constancy_checks = 0;
  int64_t swap_checks = 0;
  int64_t swap_sample_refutes = 0;  // of swap_checks, see LevelStats
  int64_t key_prune_hits = 0;
  int64_t candidates_checked = 0;  // ORDER-style candidate engines
  int64_t candidates_pruned = 0;
  int64_t ods_emitted = 0;
  int64_t partition_cache_gets = 0;
  int64_t partition_cache_puts = 0;
  int64_t partitions_reused = 0;  // of the puts, see LevelStats
  /// Validate-batch scheduling counters (num_threads > 1 runs of
  /// fastod / approximate / tane; zero otherwise). spawned counts node
  /// tasks (one per lattice node), stolen those a pool worker ran
  /// rather than the calling thread.
  int64_t tasks_spawned = 0;
  int64_t tasks_stolen = 0;
  std::vector<LevelStats> levels;
};

/// One timed phase. Offsets are seconds since the recorder's creation.
struct TraceSpan {
  std::string name;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
};

/// Collects spans + engine stats for one session and renders them as
/// JSON. Thread-safe; create one per session (or per CLI run).
class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Seconds elapsed since the recorder was created; span starts are
  /// expressed on this clock.
  double Now() const { return epoch_.ElapsedSeconds(); }

  void RecordSpan(const std::string& name, double start_seconds,
                  double duration_seconds);

  /// RAII span: records `name` from construction to destruction (or an
  /// explicit End()). Returned by value from StartSpan.
  class Span {
   public:
    Span(Span&& other) noexcept
        : recorder_(other.recorder_),
          name_(std::move(other.name_)),
          start_(other.start_) {
      other.recorder_ = nullptr;
    }
    ~Span() { End(); }
    void End();

   private:
    friend class TraceRecorder;
    Span(TraceRecorder* recorder, std::string name)
        : recorder_(recorder),
          name_(std::move(name)),
          start_(recorder == nullptr ? 0.0 : recorder->Now()) {}

    TraceRecorder* recorder_;  // null once ended/moved-from
    std::string name_;
    double start_;
  };
  Span StartSpan(std::string name) { return Span(this, std::move(name)); }

  void SetEngineStats(const EngineStats& stats);
  bool has_engine_stats() const;

  /// {"spans":[{"name","start_ms","duration_ms"}...],
  ///  "engine":{totals..., "levels":[...]}}  ("engine" is null until
  /// SetEngineStats).
  std::string ToJson() const;

 private:
  WallTimer epoch_;
  mutable std::mutex mutex_;
  std::vector<TraceSpan> spans_;        // guarded by mutex_
  EngineStats engine_stats_;            // guarded by mutex_
  bool has_engine_stats_ = false;       // guarded by mutex_
};

}  // namespace obs
}  // namespace fastod

#endif  // FASTOD_OBS_TRACE_H_
