// FASTOD (Section 4 of the paper): complete, minimal discovery of set-based
// canonical ODs by a level-wise walk of the set-containment lattice.
//
// At lattice node X (level l = |X|) the algorithm checks exactly the
// non-trivial canonical shapes
//     X\A: [] -> A        for A in X            (constancy / FD side)
//     X\{A,B}: A ~ B      for {A,B} ⊆ X, A≠B    (order-compatibility side)
// guided by the candidate sets Cc+(X) (Definition 7) and Cs+(X)
// (Definition 8), which encode minimality with respect to the axioms
// (Lemmas 5-8). Levels are pruned per Lemma 11, keys per Lemmas 12-13, and
// validation uses stripped partitions (Section 4.6).
//
// Every pruning rule is individually switchable via FastodOptions, which is
// how the paper's Exp-5/Exp-6 ("FASTOD-NoPruning") ablations are produced.
#ifndef FASTOD_ALGO_FASTOD_H_
#define FASTOD_ALGO_FASTOD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/timer.h"
#include "data/encode.h"
#include "od/bidirectional.h"
#include "od/canonical_od.h"
#include "partition/sorted_partition.h"

namespace fastod {

class OdSink;

struct FastodOptions {
  /// Use the candidate sets Cc+/Cs+ to check only potentially-minimal ODs
  /// and emit a minimal cover (Sections 4.2/4.4). When false, every
  /// non-trivial OD at every node is validated and every valid one counted,
  /// minimal or not — the "FASTOD-NoPruning" configuration of Exp-5/6.
  bool minimality_pruning = true;

  /// Delete nodes with empty candidate sets (Lemma 11, Algorithm 4).
  /// Only meaningful when minimality_pruning is on.
  bool level_pruning = true;

  /// Skip validation scans when the context partition certifies a
  /// (super)key (Lemmas 12-13). Only meaningful when minimality_pruning is
  /// on (without candidate sets there is nothing sound to skip).
  bool key_pruning = true;

  /// Swap-check strategy (Section 4.6; see partition/sorted_partition.h).
  SwapCheckMethod swap_method = SwapCheckMethod::kAuto;

  /// Keep the discovered ODs in the result (true) or only count them
  /// (false). Counting mode exists because the no-pruning ablation can
  /// produce tens of millions of non-minimal ODs (Exp-6).
  bool emit_ods = true;

  /// Stop after processing lattice level `max_level` (0 = no limit).
  int max_level = 0;

  /// Approximate discovery (the paper's future-work extension, algo/
  /// approximate.h): accept an OD when its g3 removal error is at most
  /// this threshold. 0 = exact discovery. Candidate pruning stays sound
  /// because both error measures are monotone in the context.
  double max_error = 0.0;

  /// Bidirectional extension (future-work item 1, od/bidirectional.h):
  /// when an ascending compatibility check X: A ~ B fails, additionally
  /// try the opposite polarity (A ascending orders B descending) and emit
  /// it as a BidiCompatibilityOd. Polarity resolution prefers ascending;
  /// once either polarity holds for a pair, the pair leaves Cs+ — so each
  /// pair is reported at its minimal context with its first-holding
  /// polarity.
  bool discover_bidirectional = false;

  /// Record per-level statistics (Exp-7).
  bool collect_level_stats = true;

  /// Number of worker threads, the calling thread included. The walk
  /// is level by level at every value: each level validates its nodes
  /// as one batch of tasks and derives the next level's partitions as
  /// another (ThreadPool::ParallelFor), run inline when this is 1. Output
  /// is bit-identical across all thread counts: per-node outcomes are
  /// merged on the calling thread in node order.
  int num_threads = 1;

  /// Streaming emission target (api/od_sink.h). When set, every
  /// discovered OD is delivered to the sink, in the same deterministic
  /// order the result vectors hold. Streaming and materialization are
  /// independent: emit_ods still controls whether the result vectors are
  /// filled, so a server can stream a run *and* serve its full report
  /// afterwards, while the no-pruning ablation's tens of millions of ODs
  /// are consumed with sink + emit_ods=false in O(1) memory. Must
  /// outlive the discovery run.
  OdSink* sink = nullptr;

  /// Cancellation, the wall-clock deadline and progress
  /// (common/cancellation.h), polled at the start of every node task and
  /// between levels. A passed deadline stops the run with partial results
  /// flagged timed_out (the paper's 5-hour cutoff); a cancel flags them
  /// cancelled. Null = run to completion. Must outlive the run.
  ExecutionControl* control = nullptr;

};

/// Telemetry for one lattice level (drives Figure 7).
struct FastodLevelStats {
  int level = 0;
  int64_t nodes = 0;              // nodes processed at this level
  int64_t nodes_pruned = 0;       // nodes deleted by Lemma 11 afterwards
  int64_t constancy_checks = 0;   // FD-side validations performed
  int64_t swap_checks = 0;        // OCD-side validations performed
  /// Swap checks answered by the witness sample's swap (kAuto only; see
  /// partition/sorted_partition.h) and checks that needed a full τ/sort
  /// scan. swap_checks minus both is what complete samples settled.
  int64_t swap_sample_refutes = 0;
  int64_t swap_full_scans = 0;
  int64_t key_prune_hits = 0;     // validations skipped via Lemmas 12-13
  /// Nodes whose Π*_X shares a parent's partition instead of being built:
  /// a known exact FD X\A -> A, or a superkey parent (PartitionCache::
  /// Derive).
  int64_t partitions_reused = 0;
  int64_t constancy_found = 0;
  int64_t compatibility_found = 0;
  int64_t bidirectional_found = 0;
  double seconds = 0.0;
  /// Parallel runs only: fraction [0,1] of the worker party's wall
  /// time this level's validate and derive tasks were busy, i.e. their
  /// summed run time over (level seconds × num_threads). 0 when
  /// num_threads is 1.
  double occupancy = 0.0;
};

struct FastodResult {
  /// Minimal constancy ODs X: [] -> A (the paper's "FDs"); populated when
  /// emit_ods is set.
  std::vector<ConstancyOd> constancy_ods;
  /// Minimal order-compatibility ODs X: A ~ B (the paper's "OCDs").
  std::vector<CompatibilityOd> compatibility_ods;
  /// Opposite-polarity OCDs X: A ~ B-descending (bidirectional extension;
  /// empty unless FastodOptions::discover_bidirectional).
  std::vector<BidiCompatibilityOd> bidirectional_ods;

  /// Totals, valid in both emit and count-only modes.
  int64_t num_constancy = 0;
  int64_t num_compatibility = 0;
  int64_t num_bidirectional = 0;
  int64_t NumOds() const {
    return num_constancy + num_compatibility + num_bidirectional;
  }

  bool timed_out = false;
  /// True when the run stopped early because FastodOptions::control
  /// requested cancellation; results are the partial output so far.
  bool cancelled = false;
  int levels_processed = 0;
  int64_t total_nodes = 0;
  /// PartitionCache traffic of the run: lookups served (gets) vs
  /// partitions built or shared in (puts) — the reuse ratio the
  /// observability layer reports per session.
  int64_t partition_cache_gets = 0;
  int64_t partition_cache_puts = 0;
  /// Of the puts, partitions shared with a parent rather than built by a
  /// refinement (identical at every thread count; on a run that was not
  /// stopped, the sum of FastodLevelStats::partitions_reused).
  int64_t partitions_reused = 0;
  /// Scheduling telemetry of the validate batches (both 0 when
  /// num_threads is 1). spawned counts node tasks (one per lattice
  /// node), stolen those a pool worker ran rather than the calling
  /// thread. Published to the obs registry as
  /// fastod_tasks_{spawned,stolen}_total by the engine adapter.
  int64_t tasks_spawned = 0;
  int64_t tasks_stolen = 0;
  double seconds = 0.0;
  std::vector<FastodLevelStats> level_stats;

  /// "17 (16 + 1)" — the figure-caption rendering used in the paper.
  std::string CountsToString() const;
};

class Fastod {
 public:
  explicit Fastod(FastodOptions options = FastodOptions());

  /// Discovers the complete, minimal set of canonical ODs of `relation`.
  /// `singletons`, when given, are prebuilt level-1 partitions Π*_{A},
  /// one per attribute (data/dataset_store.h builds them once per
  /// dataset; Algorithm::BindDataset passes them here). Level
  /// initialization shares these instead of recomputing ForAttribute —
  /// the partition half of load-once/discover-many. Borrowed; must match
  /// the relation exactly and outlive the call.
  FastodResult Discover(
      const EncodedRelation& relation,
      const std::vector<StrippedPartition>* singletons = nullptr) const;

  const FastodOptions& options() const { return options_; }

 private:
  FastodOptions options_;
};

}  // namespace fastod

#endif  // FASTOD_ALGO_FASTOD_H_
