// Sorted partitions τ_A and swap checking (Section 4.6).
//
// Verifying X: A ~ B means verifying, inside every equivalence class of
// Π_X, that no pair of tuples s,t has s ≺_A t but t ≺_B s (a *swap*,
// Definition 5). Two interchangeable full-scan strategies are provided:
//
//  * Sort-based: sort each class by the A-rank and sweep A-groups in
//    ascending order, tracking the running maximum B-rank of strictly
//    smaller A-groups; a swap exists iff some group contains a B-rank below
//    that running maximum. O(Σ |class| log |class|).
//
//  * τ-based (the paper's method): precompute the sorted partition τ_A —
//    all tuples ordered by A — once per attribute; then a single scan over
//    τ_A "hashes tuples into sorted buckets" per context class and applies
//    the same sweep. O(n) per check regardless of class structure.
//
// SwapCheckMethod::kAuto runs three stages:
//
//  1. Witness sample: a deterministic strided sample of each context
//     class (at most kSamplePerClass members), taken from the leading
//     classes until kSampleTuples tuples, each class's sample swept like a
//     sort-based class. A swap is an existential witness: two sampled
//     tuples of one class that swap are a real pair s,t of one class of
//     Π_X with s ≺_A t and t ≺_B s, so the OD is refuted exactly, with no
//     class index and no O(n) scan.
//  2. Complete sample: when the sample held every element of the context,
//     it *is* the full sort-based check, so its "no swap" is final too.
//  3. Otherwise a full check decides: τ-based when the context still
//     covers at least half the relation (and τ orders exist), sort-based
//     for smaller contexts (deep lattice levels).
//
// The sample only ever answers when its answer is the full check's answer,
// so kAuto, kSortBased and kTauBased agree on every input; the explicit
// methods skip stages 1-2 and are pure strategies for the ablation
// (bench_ablation_validation) and the tests.
#ifndef FASTOD_PARTITION_SORTED_PARTITION_H_
#define FASTOD_PARTITION_SORTED_PARTITION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "data/encode.h"
#include "partition/stripped_partition.h"

namespace fastod {

/// τ_A for every attribute: tuple ids in ascending A-rank order (ties by
/// tuple id), shared by all swap checks. Each order is built on first use
/// (a run scans τ for only some attributes), once, by whichever thread
/// asks first; concurrent callers wait for it. The relation must outlive
/// this object.
class SortedPartitions {
 public:
  explicit SortedPartitions(const EncodedRelation& relation);

  /// Tuples sorted ascending by attribute `attr`. Thread-safe.
  const std::vector<int32_t>& TupleOrder(int attr) const;

 private:
  const EncodedRelation& relation_;
  mutable std::vector<std::vector<int32_t>> orders_;
  mutable std::unique_ptr<std::once_flag[]> built_;
};

enum class SwapCheckMethod {
  kAuto,       // witness sample, then the coverage-chosen full scan
  kSortBased,  // per-class sort + sweep
  kTauBased,   // single scan over τ_A
};

/// Stateless-per-call swap checker bound to an encoded relation. Thread-
/// compatible: distinct instances may be used concurrently; a single
/// instance reuses scratch buffers and must not be shared across threads.
class SwapChecker {
 public:
  /// Witness-sample bounds of kAuto: members taken per context class and
  /// tuples per check.
  static constexpr int kSamplePerClass = 64;
  static constexpr int kSampleTuples = 256;

  SwapChecker(const EncodedRelation* relation,
              const SortedPartitions* sorted_partitions,
              SwapCheckMethod method = SwapCheckMethod::kAuto);

  /// True iff context : A ~ B holds, i.e. no equivalence class of
  /// `context_partition` contains a swap between attributes `a` and `b`.
  bool IsOrderCompatible(const StrippedPartition& context_partition, int a,
                         int b);

  /// Directional variant (bidirectional-OD extension): with
  /// opposite = true, checks that sorting each class by A *ascending*
  /// sorts it by B *descending* — i.e. ascending compatibility of A with
  /// the rank-reversed B. opposite = false is IsOrderCompatible.
  bool IsOrderCompatibleDirected(const StrippedPartition& context_partition,
                                 int a, int b, bool opposite);

  /// Counters for the ablation benchmarks and the engine stats: full
  /// scans by strategy, and kAuto checks refuted by the witness sample.
  int64_t num_sort_checks() const { return num_sort_checks_; }
  int64_t num_tau_checks() const { return num_tau_checks_; }
  int64_t num_full_scans() const { return num_sort_checks_ + num_tau_checks_; }
  int64_t num_sample_refutes() const { return num_sample_refutes_; }

 private:
  enum class SampleVerdict { kSwap, kNoSwapComplete, kNoSwapPartial };

  // flip_base < 0 means ascending B; otherwise B-ranks are reflected as
  // (flip_base - rank), turning descending compatibility into ascending.
  SampleVerdict CheckSample(const StrippedPartition& context, int a, int b,
                            int32_t flip_base) const;
  bool CheckSortBased(const StrippedPartition& context, int a, int b,
                      int32_t flip_base);
  bool CheckTauBased(const StrippedPartition& context, int a, int b,
                     int32_t flip_base);

  const EncodedRelation* relation_;
  const SortedPartitions* sorted_;
  SwapCheckMethod method_;

  // Scratch reused across calls.
  std::vector<int32_t> class_buffer_;
  std::vector<int32_t> class_of_;
  int64_t num_sort_checks_ = 0;
  int64_t num_tau_checks_ = 0;
  int64_t num_sample_refutes_ = 0;

  struct TauState {
    int32_t cur_a = -1;        // A-rank of the open group
    int32_t group_max_b = -1;  // max B-rank inside the open group
    int32_t run_max_b = -1;    // max B-rank over strictly smaller A-groups
  };
  std::vector<TauState> tau_states_;
};

}  // namespace fastod

#endif  // FASTOD_PARTITION_SORTED_PARTITION_H_
