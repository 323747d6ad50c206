// TANE (Huhtala et al., ICDE 1998): level-wise discovery of minimal
// functional dependencies using stripped partitions.
//
// The paper's Exp-4 compares FASTOD against TANE to measure "the extra cost
// to capture the additional OD semantics": ODs subsume FDs, the FD side of
// FASTOD's output must coincide exactly with TANE's output, and both scale
// linearly in tuples / exponentially in attributes. This is a faithful
// reimplementation of classic TANE (candidate sets Cc+, key pruning,
// partition-error validity test); footnote 2 of the paper notes the shared
// machinery.
#ifndef FASTOD_ALGO_TANE_H_
#define FASTOD_ALGO_TANE_H_

#include <cstdint>
#include <vector>

#include "common/cancellation.h"
#include "common/timer.h"
#include "data/encode.h"
#include "od/canonical_od.h"
#include "partition/stripped_partition.h"

namespace fastod {

class OdSink;

struct TaneOptions {
  /// Stop after lattice level `max_level` (0 = no limit).
  int max_level = 0;
  /// Keep discovered FDs in the result vector (true) or only count them
  /// (false) — the TANE analogue of FastodOptions::emit_ods.
  bool emit_fds = true;
  /// Streaming emission (api/od_sink.h): when set, minimal FDs are
  /// delivered through OnConstancy() in discovery order. Independent of
  /// emit_fds, so a run can stream and still render its full report.
  /// Must outlive the run.
  OdSink* sink = nullptr;
  /// Cancellation, the wall-clock deadline and progress. The stop is
  /// polled at the start of every node task and between levels
  /// (algo/lattice_walk.h): a passed deadline flags the partial result
  /// timed_out, a cancel flags it cancelled. A run stopped before its
  /// first node task reports no FDs.
  ExecutionControl* control = nullptr;
  /// Worker threads. 1 = serial. With more threads, each level's node
  /// validations and partition refinements run as two batches on a thread
  /// pool (ThreadPool::ParallelFor); per-node FD lists
  /// are merged in node order, so output is bit-identical across thread
  /// counts. The pruning step between levels is a barrier, as in
  /// FASTOD: key-node minimality (X -> A minimal iff A survives in every
  /// same-level sibling's Cc+) reads sibling state that is only final
  /// once the whole level validated.
  int num_threads = 1;
};

struct TaneResult {
  /// Minimal FDs X -> A, reusing the canonical constancy shape (an FD X->A
  /// and the OD X: [] -> A are the same statement — Theorem 2). Empty when
  /// TaneOptions::emit_fds is false (count-only mode).
  std::vector<ConstancyOd> fds;
  /// Total minimal FDs found, valid in both modes.
  int64_t num_fds = 0;
  bool timed_out = false;
  bool cancelled = false;
  int levels_processed = 0;
  int64_t total_nodes = 0;
  /// PartitionCache traffic (see FastodResult).
  int64_t partition_cache_gets = 0;
  int64_t partition_cache_puts = 0;
  /// Of the puts, partitions shared with a parent (see FastodResult).
  int64_t partitions_reused = 0;
  /// Validate-batch scheduling telemetry (num_threads > 1; see
  /// FastodResult).
  int64_t tasks_spawned = 0;
  int64_t tasks_stolen = 0;
  double seconds = 0.0;
};

class Tane {
 public:
  explicit Tane(TaneOptions options = TaneOptions());

  /// `singletons`, when given, are prebuilt level-1 partitions Π*_{A}
  /// (one per attribute; see Fastod::Discover). Borrowed; must match the
  /// relation exactly and outlive the call.
  TaneResult Discover(
      const EncodedRelation& relation,
      const std::vector<StrippedPartition>* singletons = nullptr) const;

 private:
  TaneOptions options_;
};

}  // namespace fastod

#endif  // FASTOD_ALGO_TANE_H_
